"""Tests of the benchmark's own checker and tracer, on small inputs.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from workloads import AnalysisWorkload, PowerGridWorkload


def small_analysis(tmp_path, mc=0):
    workload = AnalysisWorkload("small", "test", n=2000, intercept=0.0,
                                slope=1.0, mc=mc)
    workload.prepare(7, tmp_path)
    return workload


def run_cli(workload, tmp_path):
    outdir = tmp_path / "out"
    result = run.run_child(run.CLI + workload.argv(outdir), run.child_env(),
                           tmp_path / "cli.log")
    assert result["exit_code"] == 0, (tmp_path / "cli.log").read_text()
    return outdir


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_untouched_report_passes(tmp_path):
    workload = small_analysis(tmp_path, mc=200)
    assert workload.check(run_cli(workload, tmp_path)) == []


@pytest.mark.parametrize("section,key", [("bm_test", "s_star"),
                                         ("bb_test", "b_star"),
                                         ("bb_test", "c_n")])
def test_perturbed_statistic_is_caught(tmp_path, section, key):
    workload = small_analysis(tmp_path)
    outdir = run_cli(workload, tmp_path)
    edit_json(outdir / "report.json",
              lambda r: r[section].__setitem__(key, r[section][key] * (1 + 1e-7)))
    problems = workload.check(outdir)
    assert any(key in problem for problem in problems)


def test_out_of_range_pvalue_and_broken_svg_are_caught(tmp_path):
    workload = small_analysis(tmp_path)
    outdir = run_cli(workload, tmp_path)
    edit_json(outdir / "report.json",
              lambda r: r["bm_test"].__setitem__("p_value", 1.5))
    (outdir / "cumulative_bb.svg").write_text("<svg><polyline></svg>")
    problems = workload.check(outdir)
    assert any("bm_test.p_value" in problem for problem in problems)
    assert any("cumulative_bb.svg" in problem for problem in problems)


def test_mc_far_from_asymptotic_is_caught(tmp_path):
    workload = small_analysis(tmp_path, mc=200)
    outdir = run_cli(workload, tmp_path)
    edit_json(outdir / "report.json", lambda r: r["monte_carlo"].__setitem__(
        "bm_p_value", 0.0 if r["bm_test"]["p_value"] > 0.5 else 1.0))
    assert any(problem.startswith("bm: MC p")
               for problem in workload.check(outdir))


def test_study_missing_cell_and_bad_rate_are_caught(tmp_path):
    workload = PowerGridWorkload("small-grid", "test", n=200, reps=20)
    workload.prepare(7, tmp_path)
    outdir = run_cli(workload, tmp_path)
    assert workload.check(outdir) == []

    def tamper(study):
        study["cells"].pop()
        study["cells"][0]["rejections"]["lr"] = 1.5
    edit_json(outdir / "study.json", tamper)
    problems = workload.check(outdir)
    assert any("missing" in problem for problem in problems)
    assert any("lr rate 1.5" in problem for problem in problems)


class MissingInput(AnalysisWorkload):
    def argv(self, outdir):
        return ["test", str(self.csv) + ".absent", "--out", str(outdir)]


def test_nonzero_exit_counts_as_failed_run(tmp_path):
    workload = MissingInput("missing", "test", n=100, intercept=0.0,
                            slope=1.0)
    result = run.run_workload(workload, 7, 0, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_REPEATS
    json.dumps(result, allow_nan=False)


def test_traced_run_nests_calls_and_adds_up(tmp_path):
    workload = small_analysis(tmp_path, mc=100)
    runner = run.Runner(workload, tmp_path)
    record = runner.repeat(traced=True)
    assert record["problems"] == []
    wall, layers = run.self_times(record["trace"])
    # the observed walk, and once more inside each monte_carlo_test call
    assert layers["data.cumulative_process"]["calls"] == 3
    # read_dataset_csv validates through build_dataset in dataio's namespace
    assert layers["data.build_dataset"]["calls"] == 1
    assert all(entry["self_s"] >= 0 for entry in layers.values())
    assert sum(entry["self_s"] for entry in layers.values()) == \
        pytest.approx(wall, rel=1e-9)
    metrics = run.per_layer_metrics([], [record])
    assert metrics["stattests.monte_carlo_test.calls"]["value"] == 2
    assert metrics["dataio.read_dataset_csv.rows_per_s"]["value"] > 0


def test_overrunning_command_is_killed_with_its_launcher(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1)
    pid_file = tmp_path / "pid"
    sleeper = (f"import os, time; open({str(pid_file)!r}, 'w')"
               ".write(str(os.getpid())); time.sleep(60)")
    with pytest.raises(subprocess.TimeoutExpired):
        run.run_child([sys.executable, "-c", sleeper], run.child_env(),
                      tmp_path / "sleep.log")
    status = Path(f"/proc/{pid_file.read_text()}/status")
    deadline = time.monotonic() + 5
    while status.exists() and "zombie" not in status.read_text() \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not status.exists() or "zombie" in status.read_text()
