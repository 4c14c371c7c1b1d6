"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibwalk
from calibwalk import (
    analyze,
    read_dataset_csv,
    render_cumulative_plot,
    write_report_json,
)
from calibwalk import _pool, simulation
from calibwalk.cli import build_parser, main

TWO_POINT = "p,y\n0.6,1\n0.2,0\n"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CALIBWALK_OUTDIR", raising=False)
    monkeypatch.setenv("CALIBWALK_TIMESTAMP", "2024-01-01T00:00:00+00:00")


def _write_csv(tmp_path, text=TWO_POINT, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_import_leaves_multiprocessing_out():
    # the worker pool imports multiprocessing.connection only when it forks,
    # and on one usable CPU a study of several blocks forks nothing
    code = ("import sys, calibwalk.cli; "
            "from calibwalk import _pool, simulation; "
            "_pool._usable_cpus = lambda: 1; "
            "simulation.run_null_study([-1.0], [1000], replications=20, "
            "seed=1); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing'))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(calibwalk.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


class TestArgumentHandling:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_subcommand_help_documents_flags(self, capsys):
        study = ["--n", "--reps", "--seed", "--alpha", "--out"]
        for sub, flags, absent in [
            (["test"], ["--groups", "--alpha", "--seed", "--mc", "--clamp",
                        "--df-rule", "--out", "--no-plots"], []),
            (["simulate", "null"], ["--beta0", *study],
             ["--family", "--a ", "--b "]),
            (["simulate", "power"], ["--family", "--a", "--b", *study],
             ["--beta0"]),
            (["casestudy"], ["--seed", "--dev-n", "--small-n", "--holdout-n"],
             []),
        ]:
            with pytest.raises(SystemExit) as exc:
                main([*sub, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            for flag in flags:
                assert flag in text
            # every subcommand explains the flags it shares
            for shared in ("--alpha ALPHA significance level",
                           "--out OUT output directory"):
                assert shared in text
            for flag in absent:
                assert flag not in text

    def test_every_option_has_help(self):
        parsers, bare = [build_parser()], []
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                elif action.option_strings and not action.help:
                    bare.append((parser.prog, action.option_strings[-1]))
        assert bare == []

    def test_unknown_flag_exits_two(self, tmp_path):
        csv = _write_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["test", str(csv), "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
    def test_pyproject_reads_the_package_version(self):
        pyprojecttoml = pytest.importorskip(
            "setuptools.config.pyprojecttoml")
        root = Path(__file__).resolve().parents[1]
        config = pyprojecttoml.read_configuration(root / "pyproject.toml",
                                                  expand=True)
        assert config["project"]["version"] == calibwalk.__version__


    @pytest.mark.parametrize("argv", [
        ["test", "data.csv"],
        ["test", "data.csv", "--no-plots"],
        # the figure-only redraw that the README gives for another level
        ["test", "data.csv", "--no-hl", "--no-lr"],
        ["casestudy", "--seed", "1", "--dev-n", "200", "--small-n", "100",
         "--holdout-n", "100"],
        ["simulate", "null", "--n", "20", "--reps", "2"],
    ], ids=["test", "test-no-plots", "plot", "casestudy", "simulate"])
    @pytest.mark.parametrize("alpha", ["0", "1", "nan", "x"])
    def test_alpha_outside_unit_interval_exits_before_output(
            self, tmp_path, monkeypatch, capsys, argv, alpha):
        monkeypatch.chdir(tmp_path)
        _write_csv(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--alpha", alpha, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "argument --alpha: must be a number inside (0, 1)" in \
            capsys.readouterr().err

    # 1 - 1e-17 rounds to 1: no critical line can be drawn at that level
    @pytest.mark.parametrize("argv", [
        ["test", "data.csv"],
        ["casestudy", "--seed", "1", "--dev-n", "200", "--small-n", "100",
         "--holdout-n", "100"],
    ], ids=["test", "casestudy"])
    def test_alpha_too_small_to_draw_exits_before_output(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        _write_csv(tmp_path)
        out = tmp_path / "o"
        assert main(argv + ["--alpha", "1e-17", "--out", str(out)]) == 2
        assert not out.exists()
        assert ("error: alpha 1e-17 is too small to draw: 1 - alpha rounds "
                "to 1" in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["test", "data.csv", "--no-plots"],
        ["simulate", "null", "--n", "20", "--reps", "2"],
    ], ids=["test-no-plots", "simulate"])
    def test_alpha_too_small_to_draw_runs_without_plots(
            self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _write_csv(tmp_path)
        assert main(argv + ["--alpha", "1e-17", "--out", "o"]) == 0

    # the CSV does not exist: reading it would return 2, not exit in the
    # parser
    @pytest.mark.parametrize("argv, flag", [
        (["test", "missing.csv", "--mc"], "--mc"),
        (["test", "missing.csv", "--seed"], "--seed"),
        (["simulate", "null", "--n", "20", "--reps", "2", "--seed"], "--seed"),
        (["simulate", "power", "--n", "20", "--reps", "2", "--seed"],
         "--seed"),
        (["casestudy", "--seed"], "--seed"),
    ], ids=["test-mc", "test-seed", "null-seed", "power-seed",
            "casestudy-seed"])
    @pytest.mark.parametrize("value", ["-5", "-1", "x", "1.5"])
    def test_negative_count_or_seed_exits_before_input(
            self, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + [value, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert (f"argument {flag}: must be an integer >= 0, got {value!r}"
                in capsys.readouterr().err)


class TestCmdTest:
    def test_two_point_demo(self, tmp_path, capsys):
        csv = _write_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["test", str(csv), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bb_test"]["s_n"] == pytest.approx(0.31623, abs=5e-6)
        assert report["bb_test"]["b_star"] == pytest.approx(0.44272, abs=5e-6)
        assert report["dataset"]["small_sample_warning"]
        printed = capsys.readouterr().out
        assert "total variance below 30" in printed
        assert (out / "cumulative_bm.svg").exists()
        assert (out / "cumulative_bb.svg").exists()

    def test_saturated_prediction_exits_two(self, tmp_path, capsys):
        csv = _write_csv(tmp_path, "p,y\n1.0,1\n0.5,0\n")
        assert main(["test", str(csv), "--out", str(tmp_path / "o")]) == 2
        assert "outside (0, 1)" in capsys.readouterr().err

    def test_out_of_range_prediction_message(self, tmp_path, capsys):
        csv = _write_csv(tmp_path, "p,y\n0.5,0\n1.6,1\n")
        assert main(["test", str(csv), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: prediction outside (0, 1) at position 1: 1.6 "
            "(pass clamp_epsilon or --clamp to clip saturated predictions)\n")

    def test_clamp_flag_rescues_saturated_prediction(self, tmp_path):
        csv = _write_csv(tmp_path, "p,y\n1.0,1\n0.5,0\n")
        out = tmp_path / "o"
        assert main(["test", str(csv), "--clamp", "1e-6",
                     "--out", str(out)]) == 0

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["test", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_oversized_field_exits_two(self, tmp_path, capsys):
        csv = _write_csv(tmp_path, "p,y,note\n0.2,0,"
                         + "x" * 200_000 + "\n0.6,q,b\n")
        assert main(["test", str(csv), "--out", str(tmp_path / "o")]) == 2
        assert "error: could not convert string 'q'" in capsys.readouterr().err

    def test_monte_carlo_deterministic(self, tmp_path):
        csv = _write_csv(tmp_path)
        reports = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["test", str(csv), "--mc", "10000", "--seed", "7",
                         "--no-plots", "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["monte_carlo"] == reports[1]["monte_carlo"]
        assert 0.0 < reports[0]["monte_carlo"]["bm_p_value"] <= 1.0

    def test_report_is_library_analysis(self, tmp_path):
        rows = "".join(f"{0.05 + 0.9 * i / 59:.6f},{i % 3 == 0:d}\n"
                       for i in range(60))
        csv = _write_csv(tmp_path, "p,y\n" + rows)
        out = tmp_path / "o"
        assert main(["test", str(csv), "--mc", "200", "--seed", "3",
                     "--no-plots", "--out", str(out)]) == 0
        _, report = analyze(read_dataset_csv(csv), mc=200, seed=3)
        write_report_json(report, tmp_path / "library.json")
        assert (out / "report.json").read_bytes() == \
            (tmp_path / "library.json").read_bytes()

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_negative_zero_outcomes_write_the_same_report(self, tmp_path,
                                                          tied):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.05, 0.95, 200)
        if tied:
            p = p.round(2)
        y = (rng.random(200) < p).astype(int)
        reports = []
        for zero in ("0", "-0"):
            rows = "".join(f"{pi!r},{yi if yi else zero}\n"
                           for pi, yi in zip(p.tolist(), y.tolist()))
            csv = _write_csv(tmp_path, "p,y\n" + rows, name=f"{zero}.csv")
            out = tmp_path / zero
            assert main(["test", str(csv), "--mc", "50", "--seed", "3",
                         "--no-plots", "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("groups", ["0", "1"])
    def test_too_few_groups_exit_two_without_hl(self, tmp_path, capsys,
                                                groups):
        csv = _write_csv(tmp_path)
        out = tmp_path / "o"
        assert main(["test", str(csv), "--no-hl", "--groups", groups,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert (f"error: need at least 2 groups, got {groups}\n"
                == capsys.readouterr().err)

    @pytest.mark.parametrize("hl", [[], ["--no-hl"]], ids=["hl", "no-hl"])
    def test_groups_leaving_no_df_exit_two(self, tmp_path, capsys, hl):
        csv = _write_csv(tmp_path, "p,y\n0.2,0\n0.4,1\n0.6,0\n0.8,1\n")
        out = tmp_path / "o"
        assert main(["test", str(csv), *hl, "--groups", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert ("error: df_rule 'g_minus_2' with 2 groups leaves no degrees "
                "of freedom; use df_rule='g'\n" == capsys.readouterr().err)
        assert main(["test", str(csv), *hl, "--groups", "2", "--df-rule",
                     "g", "--no-plots", "--out", str(out)]) == 0

    def test_skipped_hl_is_named_in_a_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.3, 0.7, 200)
        rows = "".join(f"{pi!r},{int(u < pi)}\n"
                       for pi, u in zip(p.tolist(), rng.random(200)))
        csv = _write_csv(tmp_path, "p,y\n" + rows)
        skipped, no_hl = tmp_path / "skipped", tmp_path / "no_hl"
        assert main(["test", str(csv), "--groups", "5000", "--no-plots",
                     "--out", str(skipped)]) == 0
        printed = capsys.readouterr().out
        assert ("warning: n = 200 is below 5000 groups; Hosmer-Lemeshow "
                "test skipped\n") in printed
        assert "HL test" not in printed
        # --no-hl asks for no HL, so there is nothing to warn of, and the
        # report is the same
        assert main(["test", str(csv), "--no-hl", "--groups", "5000",
                     "--no-plots", "--out", str(no_hl)]) == 0
        assert "warning" not in capsys.readouterr().out
        assert (skipped / "report.json").read_bytes() == \
            (no_hl / "report.json").read_bytes()

    def test_no_plots_suppresses_svg(self, tmp_path):
        csv = _write_csv(tmp_path)
        out = tmp_path / "o"
        assert main(["test", str(csv), "--no-plots", "--out", str(out)]) == 0
        assert not list(out.glob("*.svg"))

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CALIBWALK_OUTDIR", str(tmp_path / "envout"))
        csv = _write_csv(tmp_path)
        assert main(["test", str(csv), "--no-plots"]) == 0
        assert (tmp_path / "envout" / "report.json").exists()


class TestCmdPlot:
    """Redrawing the cumulative plots with `test`, the one command that
    draws them."""

    def test_rerender_matches_original(self, tmp_path):
        csv = _write_csv(tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["test", str(csv), "--out", str(first)]) == 0
        assert main(["test", str(csv), "--no-hl", "--no-lr",
                     "--out", str(second)]) == 0
        for name in ("cumulative_bm.svg", "cumulative_bb.svg"):
            assert (second / name).read_bytes() == \
                (first / name).read_bytes()

    def test_alpha_redraws_plots_at_that_level(self, tmp_path):
        csv = _write_csv(tmp_path)
        default, redrawn = tmp_path / "default", tmp_path / "redrawn"
        assert main(["test", str(csv), "--out", str(default)]) == 0
        assert main(["test", str(csv), "--no-hl", "--no-lr",
                     "--alpha", "0.01", "--out", str(redrawn)]) == 0
        proc, report = analyze(read_dataset_csv(csv))
        for mode, result in (("bm", report.bm), ("bb", report.bb)):
            name = f"cumulative_{mode}.svg"
            svg = (redrawn / name).read_text(encoding="utf-8")
            assert svg == render_cumulative_plot(proc, mode, result,
                                                 alpha=0.01)
            assert svg != (default / name).read_text(encoding="utf-8")


class TestCmdSimulate:
    def test_null_study_desk_scale(self, tmp_path):
        out = tmp_path / "study"
        assert main(["simulate", "null", "--beta0", "-1", "--n", "1000",
                     "--reps", "1000", "--seed", "1",
                     "--out", str(out)]) == 0
        study = json.loads((out / "study.json").read_text())
        cell = study["cells"][0]
        for name in ("bm", "bb"):
            assert 0.03 <= cell["rejections"][name] <= 0.07
        assert (out / "null_beta0=-1_n=1000.svg").exists()

    def test_power_central_cell(self, tmp_path):
        out = tmp_path / "power"
        assert main(["simulate", "power", "--family", "logit-linear",
                     "--a", "0", "--b", "1", "--n", "250",
                     "--reps", "500", "--seed", "1",
                     "--out", str(out)]) == 0
        cell = json.loads((out / "study.json").read_text())["cells"][0]
        for name in ("lr", "hl", "bm", "bb"):
            assert cell["rejections"][name] == pytest.approx(0.05, abs=0.03)

    def test_same_seed_identical_study(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["simulate", "null", "--beta0", "-1", "--n", "50",
                         "--reps", "20", "--seed", "2",
                         "--out", str(d)]) == 0
        assert (dirs[0] / "study.json").read_bytes() == \
            (dirs[1] / "study.json").read_bytes()

    def test_progress_goes_to_stderr_only(self, tmp_path, monkeypatch,
                                          capsys):
        argv = ["simulate", "power", "--a", "0", "0.5", "--b", "1", "--n",
                "10", "1000", "--reps", "9", "--seed", "3"]
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        one = capsys.readouterr()
        # blocks on three workers: cells finish in any order
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 3)
        assert main(argv + ["--out", str(tmp_path / "many")]) == 0
        many = capsys.readouterr()
        labels = [f"logit_linear a={a} b=1 n={n}"
                  for a in ("0", "0.5") for n in (10, 1000)]
        for run in (one, many):
            lines = run.err.splitlines()
            assert [line.split(": ")[0] for line in lines] == [
                f"cell {k}/4 done" for k in range(1, 5)]
            assert sorted(line.split(": ")[1] for line in lines) == \
                sorted(labels)
            assert "cell" not in run.out
        assert one.out.replace("one", "many") == many.out
        for name in ["study.json"] + [
                f"{label.replace(' ', '_')}.svg" for label in labels]:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "many" / name).read_bytes()

    def test_bad_replication_count_exits_two(self, tmp_path):
        assert main(["simulate", "null", "--beta0", "-1", "--n", "100",
                     "--reps", "0", "--seed", "1",
                     "--out", str(tmp_path)]) == 2

    def test_hl_with_too_few_rows_exits_two(self, tmp_path, capsys):
        assert main(["simulate", "power", "--n", "5", "--reps", "3",
                     "--out", str(tmp_path)]) == 2
        assert "n=5 is smaller than groups=10" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, key", [
        (["--a", "0.1", "0.1000001", "--n", "30"],
         "logit_linear_a=0.1_b=1_n=30"),
        (["--n", "30", "30"], "logit_linear_a=0_b=1_n=30"),
    ], ids=["equal-to-6-digits", "repeated-n"])
    def test_cells_sharing_a_figure_name_exit_two(self, tmp_path, capsys,
                                                  grid, key):
        out = tmp_path / "o"
        assert main(["simulate", "power", *grid, "--reps", "5",
                     "--out", str(out)]) == 2
        assert f"share the figure name {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["power", "--n", "1000", "5"], "n=5 is smaller than groups=10"),
        (["power", "--n", "1000", "--b", "1", "-1"], "b must be positive"),
        (["null", "--n", "1000", "--beta0", "-1", "-1"],
         "share the figure name 'null_beta0=-1_n=1000'"),
        (["power", "--n", "1000", "--a", "0", "inf"], "a must be finite"),
        (["power", "--n", "1000", "--b", "inf"], "b must be finite"),
        (["null", "--n", "1000", "--beta0", "nan"], "beta0 must be finite"),
    ], ids=["power-n-below-groups", "nonpositive-b", "repeated-beta0",
            "infinite-a", "infinite-b", "nan-beta0"])
    def test_bad_cell_exits_before_any_replicate(self, tmp_path, monkeypatch,
                                                 capsys, argv, message):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulation, "_generate_block", no_replicate)
        out = tmp_path / "o"
        assert main(["simulate", *argv, "--reps", "3000",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["null", "--a", "1"],
        # without abbreviations off these would run as --alpha and --beta0
        ["null", "--a", "0.5"],
        ["null", "--b", "9"],
        ["null", "--family", "logit-power"],
        ["power", "--beta0", "-2"],
    ], ids=["null-a", "null-a-as-alpha", "null-b-as-beta0", "null-family",
            "power-beta0"])
    def test_flag_of_the_other_kind_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *argv, "--n", "20", "--reps", "2",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        kind, flag = argv[:2]
        owner = "power" if kind == "null" else "null"
        err = capsys.readouterr().err
        assert err.startswith(f"usage: calibwalk simulate {kind} ")
        assert (f"argument {flag}: belongs to 'calibwalk simulate {owner}'"
                in err)

    def test_saturated_predictions_run(self, tmp_path, capsys):
        # b = 0.2 bends log-odds past 37, where expit returns exactly 1.0
        out = tmp_path / "o"
        assert main(["simulate", "power", "--family", "logit-power",
                     "--a", "0", "--b", "0.2", "--n", "100", "--reps", "20",
                     "--seed", "4", "--out", str(out)]) == 0
        assert "logit_power a=0 b=0.2 n=100: rejections" in \
            capsys.readouterr().out
        assert (out / "logit_power_a=0_b=0.2_n=100.svg").exists()

    def test_missing_grid_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "null", "--reps", "10",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestCmdCasestudy:
    def test_same_seed_identical_artifacts(self, tmp_path):
        args = ["casestudy", "--seed", "5", "--dev-n", "2000",
                "--small-n", "200", "--holdout-n", "800"]
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(args + ["--out", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert len([n for n in names if n.endswith(".svg")]) == 8
        for name in names:
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()

    def test_report_and_plot_agree(self, tmp_path):
        out = tmp_path / "case"
        assert main(["casestudy", "--seed", "3", "--dev-n", "2000",
                     "--small-n", "200", "--holdout-n", "800",
                     "--out", str(out)]) == 0
        for label in ("full", "small"):
            report = json.loads((out / f"{label}_report.json").read_text())
            svg = (out / f"{label}_cumulative_bb.svg").read_text()
            assert f"unified p = {report['bb_test']['p_unified']:.4f}" in svg
            bm_svg = (out / f"{label}_cumulative_bm.svg").read_text()
            assert f"p = {report['bm_test']['p_value']:.4f}" in bm_svg

    def test_failed_render_writes_nothing(self, tmp_path):
        from calibwalk.cli import run_case_study

        out = tmp_path / "case"
        with pytest.raises(ValueError, match="alpha must be inside"):
            run_case_study(1, dev_n=200, small_n=100, holdout_n=100,
                           out_dir=out, alpha=1.0)
        assert not out.exists()

    def test_invalid_split_exits_two(self, tmp_path):
        assert main(["casestudy", "--seed", "1", "--dev-n", "100",
                     "--small-n", "200", "--holdout-n", "100",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--dev-n", "-5", "dev_n must be >= 1"),
        ("--small-n", "0", "small_n must be >= 1"),
        ("--holdout-n", "-1", "holdout_n must be >= 1"),
    ], ids=["dev-n", "small-n", "holdout-n"])
    def test_size_below_one_exits_two(self, tmp_path, capsys, flag, value,
                                      message):
        # "small_n cannot exceed dev_n" and "negative dimensions are not
        # allowed" once stood for these
        argv = ["casestudy", "--seed", "1", "--dev-n", "100", "--small-n",
                "50", "--holdout-n", "100", "--out", str(tmp_path / "o")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("arguments, message", [
        ((2.7,), "seed must be an integer, got 2.7"),
        ((True,), "seed must be an integer, got True"),
        ((-1,), "seed must be >= 0"),
        ((1, 100.0), "dev_n must be an integer, got 100.0"),
    ], ids=["float-seed", "bool-seed", "negative-seed", "float-dev-n"])
    def test_rejects_non_integer_or_negative_arguments(self, arguments,
                                                      message):
        from calibwalk.cli import run_case_study

        with pytest.raises(ValueError, match=f"^{message}$"):
            run_case_study(*arguments, small_n=10, holdout_n=10)

    def test_full_model_calibrated_across_seeds(self):
        # the large-split model is calibrated by construction, so its
        # holdout p-values should look uniform: rejection near the level
        from calibwalk.cli import run_case_study

        rejections = sum(
            run_case_study(seed, out_dir=None)["full"]["report"]
            .bb.p_unified < 0.05
            for seed in range(50)
        )
        slack = 2.0 * (0.05 * 0.95 / 50) ** 0.5
        assert rejections / 50 <= 0.10 + slack
