"""Benchmark the calibwalk CLI end to end, or layer by layer when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-1e6 --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload in turn.  Inputs are generated from
the seed before timing starts.  Each command runs in a fresh interpreter
(``python -m calibwalk.cli`` with ``PYTHONPATH=src``) and every output is
checked; a non-zero exit or a failed check counts as a failed run.

With ``--trace 0`` the end-to-end metrics are medians over the repeats
that fit in ``--seconds``.  Each repeat's times are taken as multiples of
the time of ``reference.py``'s fixed kernel, timed just before and just
after the repeat, so that the host's own changes of speed cancel out.
With ``--trace 1`` untraced and traced repeats
alternate; the traced ones run through ``trace_cli.py``, and the per-layer
metrics come from the traced repeat with the median wall time.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reference import reference_seconds
from trace_cli import LAYERS
from workloads import WORKLOADS, lr_failures, output_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# `--version` timings taken before each repeat, so they spread over the run
SETUP_SAMPLES_PER_REPEAT = 2
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
TIMESTAMP = "2000-01-01T00:00:00+00:00"
CLI = [sys.executable, "-m", "calibwalk.cli"]

END_TO_END_UNITS = {
    "wall_ref": "1",
    "work_per_ref": "1/ref",
    "cpu_ref": "1",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
    "setup_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(argv, env, log_path):
    """Run one command through launch.py and return what it measured.

    The result holds exit_code, wall_s, cpu_s and peak_rss_bytes.  The
    launcher and the command run in a session of their own, so a command
    that overruns ``CHILD_TIMEOUT_S`` is killed together with its launcher.
    """
    result_path = log_path.with_suffix(".result.json")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py"), str(result_path)]
            + argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchmarkError(f"launcher failed: {_tail(log_path)}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["CALIBWALK_TIMESTAMP"] = TIMESTAMP
    env.pop("CALIBWALK_OUTDIR", None)
    return env


def _tail(path, lines=5):
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-lines:])


def self_times(trace):
    """Per-layer calls and self time (duration minus child spans)."""
    spans = trace["spans"]
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for (layer, *_), own in zip(spans, self_s):
        layers[layer]["calls"] += 1
        layers[layer]["self_s"] += own
    wall = trace["end"] - trace["start"]
    residual = wall - sum(entry["self_s"] for entry in layers.values())
    layers["cli.residual"] = {"calls": 1, "self_s": residual}
    return wall, layers


class Runner:
    """Runs one workload's commands and keeps a record of each repeat."""

    def __init__(self, workload, workdir):
        self.workload, self.workdir = workload, workdir
        self.env = child_env()
        self.repeats = []
        # outputs digest -> problems: byte-identical outputs get the same
        # verdict, so each distinct set of outputs is checked once
        self.verdicts = {}

    def setup_sample(self):
        result = run_child(CLI + ["--version"], self.env,
                           self.workdir / "version.log")
        if result["exit_code"] != 0:
            raise BenchmarkError(
                "`python -m calibwalk.cli --version` failed: "
                + _tail(self.workdir / "version.log"))
        return result["wall_s"]

    def repeat(self, traced):
        index = len(self.repeats)
        outdir = self.workdir / f"out{index}"
        log = self.workdir / f"out{index}.log"
        spans_path = self.workdir / f"spans{index}.json"
        argv = self.workload.argv(outdir)
        command = ([sys.executable, str(HERE / "trace_cli.py"),
                    str(spans_path)] if traced else CLI) + argv
        record = run_child(command, self.env, log)
        record["traced"] = traced
        code = record.pop("exit_code")
        if code != 0:
            record["problems"] = [f"exit code {code}: {_tail(log)}"]
        else:
            record["digests"] = output_digests(outdir)
            key = json.dumps(record["digests"], sort_keys=True)
            if key not in self.verdicts:
                self.verdicts[key] = self.workload.check(outdir)
            record["problems"] = list(self.verdicts[key])
            files = [p for p in outdir.rglob("*") if p.is_file()]
            record["output_bytes"] = sum(p.stat().st_size for p in files)
            if traced:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                record["trace"] = trace
                record["lr_failures"] = lr_failures(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        self.repeats.append(record)
        return record


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(runner, untraced, setup):
    work = runner.workload.work
    # failed repeats count only when none passed, so the result stays numeric
    ok = [r for r in untraced if not r["problems"]] or untraced
    values = {
        "wall_ref": _median([r["wall_s"] / r["reference_s"] for r in ok]),
        "work_per_ref": _median([work * r["reference_s"] / r["wall_s"]
                                 for r in ok]),
        "cpu_ref": _median([r["cpu_s"] / r["reference_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_bytes"] / 2**20 for r in ok]),
        "output_bytes": _median([r.get("output_bytes", 0) for r in ok]),
        "setup_s": _median(setup),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def per_layer_metrics(untraced, traced):
    ok = sorted((r for r in traced if not r["problems"]),
                key=lambda r: r["wall_s"])
    if not ok:
        return {}
    chosen = ok[(len(ok) - 1) // 2]
    wall, layers = self_times(chosen["trace"])
    counters = chosen["trace"]["counters"]
    metrics = {}
    for layer, entry in layers.items():
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.share"] = (entry["self_s"] / wall, "1")

    def rate(counter, layer):
        seconds = layers[layer]["self_s"]
        return counters.get(counter, 0) / seconds if seconds > 0 else 0.0

    read, render = "dataio.read_dataset_csv", "svgplot.render_cumulative_plot"
    lr, mc = ("stattests.weak_calibration_lr_test",
              "stattests.monte_carlo_test")
    metrics[f"{read}.rows_per_s"] = (rate(f"{read}.rows", read), "1/s")
    metrics[f"{render}.bytes"] = (counters.get(f"{render}.bytes", 0), "bytes")
    metrics[f"{lr}.iterations"] = (counters.get(f"{lr}.iterations", 0),
                                   "count")
    metrics[f"{mc}.draws_per_s"] = (rate(f"{mc}.draws", mc), "1/s")
    metrics["simulation.lr_failures"] = (chosen["lr_failures"], "count")
    metrics["trace.wall_s"] = (wall, "s")
    overhead = (_median([r["wall_s"] for r in traced])
                - _median([r["wall_s"] for r in untraced]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _cache_sizes():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(workload):
    finfo = np.finfo(np.longdouble)
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble": {"bits": finfo.bits, "nmant": finfo.nmant,
                       "eps": float(finfo.eps), "precision": finfo.precision},
    }
    if getattr(workload, "mc", 0):
        # float64 walk block of stattests._simulate_null_statistics:
        # max(1, 4e6 // n) replicate rows of n columns
        rows = max(1, 4_000_000 // workload.n)
        facts["mc_block_bytes"] = rows * workload.n * 8
    return facts


def _samples(values):
    if not values:
        return ""
    return f"  median of {len(values)}: " + " ".join(
        f"{v:.4g}" for v in sorted(values))


def run_workload(workload, seed, seconds, trace, workdir):
    print(f"== workload {workload.name}  seed {seed}  trace {trace}")
    print(f"why: {workload.why}")
    input_facts = workload.prepare(seed, workdir)
    runner = Runner(workload, workdir)
    runner.setup_sample()  # warm-up: fails fast where the package is absent
    print("machine: " + json.dumps(machine_facts(workload)))
    print("input: " + json.dumps(input_facts))

    start = time.perf_counter()
    setup, reference = [], []
    minimum = 2 * MIN_REPEATS - 2 if trace else MIN_REPEATS
    while True:
        before = time.perf_counter()
        setup += [runner.setup_sample()
                  for _ in range(SETUP_SAMPLES_PER_REPEAT)]
        reference.append(reference_seconds())
        runner.repeat(traced=bool(trace) and len(runner.repeats) % 2 == 1)
        took = time.perf_counter() - before
        # stop when the next repeat would end more than half-way past the
        # deadline, so runs of long repeats last about `seconds` on average
        if (len(runner.repeats) >= minimum
                and time.perf_counter() - start + took / 2 > seconds):
            break
    reference.append(reference_seconds())

    repeats = runner.repeats
    for record, before, after in zip(repeats, reference, reference[1:]):
        record["reference_s"] = (before + after) / 2
    failed = [r for r in repeats if r["problems"]]
    for index, record in enumerate(repeats):
        for problem in record["problems"]:
            print(f"FAILED repeat {index}: {problem}", file=sys.stderr)
    digests = [r["digests"] for r in repeats if "digests" in r]
    if digests:
        print("outputs: " + json.dumps(digests[0]))
        print("outputs identical across repeats: "
              + str(all(d == digests[0] for d in digests)))
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    if trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(runner, untraced, setup)
        walls = [r["wall_s"] for r in untraced]
        samples = {
            "wall_s": walls,
            "work_per_s": [workload.work / wall for wall in walls],
            "cpu_s": [r["cpu_s"] for r in untraced],
            "reference_s": reference,
        }
        for name, values in samples.items():
            unit = workload.work_unit if name == "work_per_s" else "s"
            print(f"{name:<14} {_median(values):>14.6g} {unit:<13}"
                  + _samples(values))
        for name, entry in metrics.items():
            print(f"{name:<14} {entry['value']:>14.6g} {entry['unit']:<13}"
                  + _samples(setup if name == "setup_s" else []))
    if trace:
        for name, entry in metrics.items():
            print(f"{name:<52} {entry['value']:>14.6g} {entry['unit']}")
    print(f"error_rate     {len(failed) / len(repeats):>14.6g} "
          f"({len(failed)} failed of {len(repeats)} runs)")
    return {"correct": not failed, "attempted": len(repeats),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (ROOT / "src" / "calibwalk" / "cli.py").is_file():
        print(f"error: no calibwalk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    results = {}
    try:
        for name in names:
            subdir = workdir / name
            subdir.mkdir()
            results[name] = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds, args.trace, subdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
