"""Scenario generators and study runners."""

import errno
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from calibwalk import _pool, dataio, simulation, stattests
from calibwalk.data import build_dataset
from calibwalk.dataio import analyze, read_dataset_csv, write_study_json
from calibwalk.simulation import (
    HL_GROUPS,
    SimulationScenario,
    _cell_key,
    _replicate_rng,
    family_risk_and_predictions,
    generate_dataset,
    pvalue_ecdf,
    run_null_study,
    run_power_study,
)


def _run_cell(scenario):
    """One cell run as a one-cell study."""
    return simulation._run_study([scenario])[0]


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        good = dict(family="null", n=10, replications=5, seed=0)
        SimulationScenario(**good)
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "family": "cauchy"})
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "n": 0})
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "replications": 0})
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            SimulationScenario(**{**good, "seed": -1})
        with pytest.raises(ValueError):
            SimulationScenario(**{**good, "alpha": 1.0})
        with pytest.raises(ValueError):
            SimulationScenario(family="logit_linear", n=10, replications=5,
                               seed=0, b=0.0)
        with pytest.raises(ValueError, match="n=9 is smaller than groups=10"):
            SimulationScenario(family="logit_power", n=9, replications=5,
                               seed=0)

    def test_integer_fields_become_python_ints(self, tmp_path):
        scenario = SimulationScenario(family="null", n=np.int64(50),
                                      replications=np.uint8(5),
                                      seed=np.int64(2))
        for name in ("n", "replications", "seed"):
            assert type(getattr(scenario, name)) is int
        summaries = run_null_study([-1.0], np.array([50]), np.int32(5),
                                   seed=np.int64(2))
        assert type(summaries[0].scenario.seed) is int
        write_study_json(summaries, tmp_path / "study.json")

    @pytest.mark.parametrize("value", [True, False, 50.0, "50", None])
    @pytest.mark.parametrize("name", ["n", "replications", "seed"])
    def test_rejects_non_integer_counts(self, name, value):
        fields = dict(family="null", n=50, replications=5, seed=0)
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got "):
            SimulationScenario(**{**fields, name: value})

    @pytest.mark.parametrize("value", [int, np.float64, np.float32,
                                       np.int64])
    def test_grid_value_type_does_not_change_the_study(self, tmp_path,
                                                       value):
        # the same numbers as Python floats: the same streams and bytes
        def study(number, path):
            summaries = (
                run_null_study([number(-1)], [50], 20, seed=2)
                + run_power_study("logit_power", [number(0)], [number(2)],
                                  [30], 10, seed=2))
            write_study_json(summaries, path)
            return summaries

        got = study(value, tmp_path / "got.json")
        want = study(float, tmp_path / "want.json")
        for g, w in zip(got, want):
            assert g == w
            for test in w.pvalues:
                np.testing.assert_array_equal(g.pvalues[test].view(np.uint64),
                                              w.pvalues[test].view(np.uint64))
        assert (tmp_path / "got.json").read_bytes() == \
            (tmp_path / "want.json").read_bytes()

    def test_real_fields_become_python_floats(self, tmp_path):
        scenario = SimulationScenario(
            family="logit_linear", n=10, replications=5, seed=0,
            beta0=np.int64(1), a=np.float32(0.5), b=2, alpha=np.float32(0.25))
        for name in ("beta0", "a", "b", "alpha"):
            assert type(getattr(scenario, name)) is float
        assert scenario.alpha == float(np.float32(0.25))
        summaries = run_null_study(np.array([-1.0], dtype=np.float32), [50],
                                   5, seed=2, alpha=np.float32(0.05))
        write_study_json(summaries, tmp_path / "study.json")

    @pytest.mark.parametrize("value", [True, np.True_, "1.0", None])
    @pytest.mark.parametrize("name", ["beta0", "a", "b", "alpha"])
    def test_rejects_non_numbers(self, name, value):
        family = "logit_linear" if name in ("a", "b") else "null"
        with pytest.raises(ValueError,
                           match=f"^{name} must be a number, got "):
            SimulationScenario(family=family, n=10, replications=5, seed=0,
                               **{name: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["beta0", "a", "b"])
    def test_rejects_non_finite_grid_values(self, name, value):
        family = "null" if name == "beta0" else "logit_linear"
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SimulationScenario(family=family, n=10, replications=5, seed=0,
                               **{name: value})

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", ["beta0", "a", "b", "alpha"])
    def test_ints_beyond_the_float_range_are_value_errors(self, name, sign):
        # float() of such an int raises OverflowError, not a ValueError
        family = "logit_linear" if name in ("a", "b") else "null"
        message = (r"alpha must be inside \(0, 1\)" if name == "alpha"
                   else f"{name} must be finite")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimulationScenario(family=family, n=10, replications=5, seed=0,
                               **{name: sign * 10**400})

    def test_non_finite_grid_value_fails_before_any_replicate(
            self, monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulation, "_generate_block", no_replicate)
        with pytest.raises(ValueError, match="a must be finite"):
            run_power_study("logit_linear", [0.0, math.inf], [1.0], [20],
                            replications=3000, seed=0)
        with pytest.raises(ValueError, match="b must be finite"):
            run_power_study("logit_power", [0.0], [1.0, math.inf], [20],
                            replications=3000, seed=0)
        with pytest.raises(ValueError, match="beta0 must be finite"):
            run_null_study([-1.0, math.nan], [20], replications=3000, seed=0)


class TestGenerators:
    def test_identity_transform_logit_linear(self):
        scenario = SimulationScenario(family="logit_linear", n=100,
                                      replications=1, seed=0, a=0.0, b=1.0)
        x = np.linspace(-3, 3, 100)
        risk, predictions = family_risk_and_predictions(scenario, x)
        np.testing.assert_array_equal(risk, predictions)

    def test_identity_transform_logit_power(self):
        scenario = SimulationScenario(family="logit_power", n=100,
                                      replications=1, seed=0, a=0.0, b=1.0)
        x = np.linspace(-3, 3, 100)
        risk, predictions = family_risk_and_predictions(scenario, x)
        np.testing.assert_allclose(predictions, risk, atol=1e-15)

    def test_null_family_predicts_true_risk(self):
        scenario = SimulationScenario(family="null", n=50, replications=1,
                                      seed=0, beta0=-1.0)
        x = np.linspace(-2, 2, 50)
        risk, predictions = family_risk_and_predictions(scenario, x)
        assert risk is predictions

    def test_generate_is_deterministic(self):
        scenario = SimulationScenario(family="logit_power", n=200,
                                      replications=3, seed=42, a=0.1, b=2.0)
        d1 = generate_dataset(scenario, 2)
        d2 = generate_dataset(scenario, 2)
        np.testing.assert_array_equal(d1.predictions, d2.predictions)
        np.testing.assert_array_equal(d1.outcomes, d2.outcomes)

    def test_replicates_differ(self):
        scenario = SimulationScenario(family="null", n=100, replications=2,
                                      seed=42, beta0=0.0)
        d1 = generate_dataset(scenario, 0)
        d2 = generate_dataset(scenario, 1)
        assert not np.array_equal(d1.predictions, d2.predictions)

    def test_replicate_index_must_be_a_non_negative_integer(self):
        scenario = SimulationScenario(family="null", n=10, replications=2,
                                      seed=0)
        for index in (True, 1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="replicate_index must be an "
                                                 "integer"):
                generate_dataset(scenario, index)
        with pytest.raises(ValueError, match="replicate_index must be >= 0"):
            generate_dataset(scenario, -1)
        np.testing.assert_array_equal(
            generate_dataset(scenario, np.int64(1)).predictions,
            generate_dataset(scenario, 1).predictions)

    def test_replicate_streams_do_not_depend_on_order(self):
        scenario = SimulationScenario(family="null", n=30, replications=5,
                                      seed=9, beta0=-1.0)
        forward = [generate_dataset(scenario, r).predictions
                   for r in range(5)]
        backward = [generate_dataset(scenario, r).predictions
                    for r in reversed(range(5))]
        for r in range(5):
            np.testing.assert_array_equal(forward[r], backward[4 - r])

    def test_saturated_predictions_move_just_inside(self):
        # b = 0.05 bends log-odds far past both ends of expit's range
        scenario = SimulationScenario(family="logit_power", n=1000,
                                      replications=1, seed=0, b=0.05)
        data = generate_dataset(scenario, 0)
        assert 0.0 < data.predictions.min() and data.predictions.max() < 1.0
        rng = _replicate_rng(scenario.seed, _cell_key(scenario), 0)
        x = rng.standard_normal(scenario.n)
        # the clip is monotone, so it commutes with the dataset's sort
        raw = np.sort(family_risk_and_predictions(scenario, x)[1])
        inside = (raw > 0.0) & (raw < 1.0)
        assert np.count_nonzero(raw == 0.0) and np.count_nonzero(raw == 1.0)
        np.testing.assert_array_equal(data.predictions[inside], raw[inside])
        np.testing.assert_array_equal(
            data.predictions[~inside],
            np.where(raw[~inside] == 0.0, np.nextafter(0.0, 1.0),
                     np.nextafter(1.0, 0.0)))

    def test_mean_prediction_tracks_intercept(self):
        scenario = SimulationScenario(family="null", n=200_000,
                                      replications=1, seed=3, beta0=-1.0)
        data = generate_dataset(scenario, 0)
        assert float(data.predictions.mean()) == pytest.approx(0.303, abs=0.005)


class TestStudies:
    def test_null_study_is_reproducible(self):
        first = run_null_study([-1.0], [60], replications=40, seed=5)
        second = run_null_study([-1.0], [60], replications=40, seed=5)
        assert first == second
        np.testing.assert_array_equal(first[0].pvalues["bm"],
                                      second[0].pvalues["bm"])

    def test_degenerate_single_replication(self):
        summary = run_null_study([0.0], [20], replications=1, seed=1)[0]
        for name in ("bm", "bb"):
            assert len(summary.pvalues[name]) == 1
            assert summary.rejections[name] in (0.0, 1.0)

    def test_grid_shape_and_validation(self):
        summaries = run_null_study([-1.0, 0.0], [20, 30], replications=2,
                                   seed=0)
        assert len(summaries) == 4
        with pytest.raises(ValueError):
            run_null_study([], [100], replications=2, seed=0)
        with pytest.raises(ValueError):
            run_power_study("logit_linear", [0.0], [], [100],
                            replications=2, seed=0)
        with pytest.raises(ValueError):
            run_power_study("null", [0.0], [1.0], [100], replications=2,
                            seed=0)

    def test_grids_may_be_iterators(self):
        summaries = run_power_study("logit_linear", iter([0.0]),
                                   iter([1.0, 2.0]), iter([20, 30]),
                                   replications=1, seed=0)
        assert [s.scenario.label for s in summaries] == [
            "logit_linear a=0 b=1 n=20", "logit_linear a=0 b=1 n=30",
            "logit_linear a=0 b=2 n=20", "logit_linear a=0 b=2 n=30"]

    def test_repeated_figure_name_raises_before_any_replicate(
            self, monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulation, "_generate_block", no_replicate)
        with pytest.raises(ValueError,
                           match="share the figure name 'null_beta0=-1_n=20'"):
            run_null_study([-1.0, -1.0000001], [20], replications=3000,
                           seed=0)
        with pytest.raises(ValueError, match="b must be positive"):
            run_power_study("logit_linear", [0.0], [1.0, -1.0], [20],
                            replications=3000, seed=0)

    def test_standard_error_bound_at_2500(self):
        summary = run_null_study([-1.0], [50], replications=2500, seed=2)[0]
        assert all(se <= 0.01 for se in summary.standard_errors.values())

    def test_power_study_runs_all_tests(self):
        summary = run_power_study("logit_linear", [0.0], [1.0], [60],
                                  replications=5, seed=1)[0]
        assert set(summary.rejections) == {"lr", "hl", "bm", "bb"}
        assert summary.lr_failures >= 0

    def test_lr_failures_counted_as_nonrejection(self):
        # tiny samples make complete separation likely; 10 rows is the
        # least the Hosmer-Lemeshow comparator of a power cell needs
        scenario = SimulationScenario(family="logit_linear", n=10,
                                      replications=60, seed=3, a=0.0, b=1.0)
        summary = _run_cell(scenario)
        assert summary.lr_failures > 0
        failures = int(np.count_nonzero(summary.pvalues["lr"] == 1.0))
        assert failures >= summary.lr_failures

    def test_unconverged_lr_fits_are_nan_in_the_table(self):
        # n = 10 and a steep slope: many separated fits
        scenario = SimulationScenario(family="logit_linear", n=10,
                                      replications=60, seed=6, a=0.0, b=3.0)
        fits = [stattests.weak_calibration_lr_test(
            generate_dataset(scenario, r)) for r in range(60)]
        unfitted = np.array([not fit.converged for fit in fits])
        assert 0 < np.count_nonzero(unfitted) < 60
        table = np.zeros((len(simulation._tests(scenario)), 60))
        simulation._run_block(scenario, 0, 60, table)
        row = simulation._tests(scenario).index("lr")
        np.testing.assert_array_equal(np.isnan(table[row]), unfitted)
        assert not np.isnan(np.delete(table, row, axis=0)).any()
        np.testing.assert_array_equal(
            table[row][~unfitted],
            [fit.p_value for fit in fits if fit.converged])
        summary = simulation._summary(scenario, table)
        assert summary.lr_failures == np.count_nonzero(unfitted)
        np.testing.assert_array_equal(summary.pvalues["lr"][unfitted], 1.0)
        assert not np.isnan(summary.pvalues["lr"]).any()


def _analyzed_pvalues(scenario):
    """Each replicate's p-values from ``analyze`` on its own dataset."""
    power = scenario.family != "null"
    names = ("bm", "bb", "hl", "lr") if power else ("bm", "bb")
    pvalues = {name: [] for name in names}
    failures = 0
    for r in range(scenario.replications):
        _, report = analyze(generate_dataset(scenario, r), groups=HL_GROUPS,
                            df_rule="g")
        pvalues["bm"].append(report.bm.p_value)
        pvalues["bb"].append(report.bb.p_unified)
        if power:
            weak = report.weak_calibration
            pvalues["hl"].append(report.hl.p_value)
            pvalues["lr"].append(weak.p_value if weak.converged else 1.0)
            failures += not weak.converged
    return pvalues, failures


class TestBlocksMatchAnalyze:
    # (family, n, replications, grid values): each family runs cells of
    # fewer and of more replicates than one block holds, and n = 4099 is
    # above _STUDY_BLOCK_VALUES, which leaves one-row blocks
    @pytest.mark.parametrize("family, n, replications, values", [
        ("null", 1, 4097, dict(beta0=-1.0)),
        ("null", 7, 586, dict(beta0=5.0)),
        ("null", 1003, 3, dict(beta0=-30.0)),
        ("null", 4099, 2, dict(beta0=0.0)),
        ("logit_linear", 10, 410, dict(a=0.25, b=2.0)),
        ("logit_linear", 50, 40, dict(a=-0.5, b=0.5)),
        ("logit_linear", 1003, 6, dict(a=0.0, b=1.0)),
        ("logit_power", 10, 30, dict(a=0.25, b=2.0)),
        ("logit_power", 50, 82, dict(a=0.0, b=1.5)),
        ("logit_power", 1003, 3, dict(a=-0.25, b=0.5)),
        ("logit_power", 4099, 2, dict(a=0.0, b=1.0)),
        # saturated: predictions clipped at both ends
        ("logit_power", 1003, 6, dict(a=0.0, b=0.05)),
        # steep slope at n = 10: many separated LR fits
        ("logit_linear", 10, 60, dict(a=0.0, b=3.0)),
    ])
    def test_every_row_equals_analyze(self, family, n, replications,
                                      values):
        scenario = SimulationScenario(family=family, n=n,
                                      replications=replications, seed=6,
                                      **values)
        summary = _run_cell(scenario)
        pvalues, failures = _analyzed_pvalues(scenario)
        assert set(summary.pvalues) == set(pvalues)
        for name, expected in pvalues.items():
            np.testing.assert_array_equal(summary.pvalues[name], expected,
                                          err_msg=name)
        assert summary.lr_failures == failures
        if values.get("b") == 3.0:
            assert failures > 0

    def test_power_cell_scratch_memory(self):
        # blocks of 4 rows at n = 1000 peak near 0.30 MB, blocks of 8 rows
        # near 0.58 MB and one block of all 12 rows near 0.81 MB
        scenario = SimulationScenario(family="logit_power", n=1000,
                                      replications=12, seed=1, a=0.25, b=2.0)
        # a first cell imports what the cells use
        _run_cell(SimulationScenario(family="logit_power", n=10,
                                     replications=2, seed=1))
        tracemalloc.start()
        try:
            _run_cell(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000



# (name, study): 12 blocks over eight power cells, the n = 1000 cells in
# a block of 8 rows and a short one of 1; 12 blocks over four null cells,
# n = 4099 in one-row blocks; and 2 blocks of one cell, fewer than 8
# workers
POOL_STUDIES = [
    ("power", lambda: run_power_study("logit_linear", [0.0, 0.5], [1.0, 3.0],
                                      [10, 1000], replications=9, seed=4)),
    ("null", lambda: run_null_study([-1.0, 0.0], [7, 4099], replications=5,
                                    seed=2)),
    ("three-spans", lambda: run_null_study([0.0], [1000], replications=10,
                                           seed=3)),
]


def _block_pids(monkeypatch, tmp_path, before):
    """Patch ``_run_block`` to log the pid of the process that runs each
    block and then call ``before(is_parent, start, pids)``; return
    ``pids``, which reads the log."""
    parent, log = os.getpid(), tmp_path / "pids"
    run_block = simulation._run_block

    def pids():
        return list(map(int, log.read_text().split()))

    def logged(scenario, start, stop, pvalues):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        before(os.getpid() == parent, start, pids)
        return run_block(scenario, start, stop, pvalues)

    monkeypatch.setattr(simulation, "_run_block", logged)
    return pids


def _in_order(scenario):
    """A cell's summary from its blocks run in order in this process."""
    table = np.empty((len(simulation._tests(scenario)),
                      scenario.replications))
    rows = simulation._block_rows(scenario)
    for start in range(0, scenario.replications, rows):
        simulation._run_block(scenario, start,
                              min(start + rows, scenario.replications), table)
    return simulation._summary(scenario, table)


def _wait_for_workers(pids, count):
    """Wait, up to 30 s, until ``count`` processes have started a block."""
    deadline = time.monotonic() + 30
    while len(set(pids())) < count and time.monotonic() < deadline:
        time.sleep(0.01)


def _exit_three():
    os._exit(3)


def _raise_unpicklable():
    class Unpicklable(Exception):  # a local class does not pickle
        pass

    raise Unpicklable("cannot travel")


def _raise_long():
    raise ValueError("x" * 1_000_000)  # longer than a pipe holds


class TestWorkerProcesses:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("name, study", POOL_STUDIES,
                             ids=[name for name, _ in POOL_STUDIES])
    def test_bit_identical_for_any_worker_count(self, use_cpus, no_children,
                                                tmp_path, cpus, name, study):
        use_cpus(cpus)
        got = study()
        want = [_in_order(s.scenario) for s in got]
        assert got == want
        for g, w in zip(got, want):
            assert set(g.pvalues) == set(w.pvalues)
            for test in w.pvalues:
                np.testing.assert_array_equal(g.pvalues[test].view(np.uint64),
                                              w.pvalues[test].view(np.uint64))
        write_study_json(got, tmp_path / "got.json")
        write_study_json(want, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == \
            (tmp_path / "want.json").read_bytes()
        assert no_children()

    def test_blocks_run_in_forked_workers(self, monkeypatch, tmp_path,
                                          use_cpus, no_children):
        def before(is_parent, start, pids):
            if is_parent:
                _wait_for_workers(pids, 3)
            else:
                time.sleep(0.02)

        use_cpus(3)
        pids = _block_pids(monkeypatch, tmp_path, before)
        run_null_study([0.0], [1000], replications=320, seed=3)  # 40 blocks
        assert len(pids()) == 40
        assert os.getpid() in pids() and len(set(pids())) == 3
        assert no_children()

    def test_error_in_a_child_reaches_the_caller(self, monkeypatch, tmp_path,
                                                 use_cpus, no_children):
        def before(is_parent, start, pids):
            if is_parent:
                _wait_for_workers(pids, 2)
            else:
                raise LookupError(f"block at {start} failed")

        use_cpus(2)
        _block_pids(monkeypatch, tmp_path, before)
        with pytest.raises(LookupError,
                           match=r"^block at \d+ failed$") as caught:
            run_null_study([0.0], [1000], replications=40, seed=3)
        assert type(caught.value) is LookupError
        assert "in a worker process" in str(caught.value.__cause__)
        assert no_children()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_in_the_parent_kills_the_children(self, monkeypatch,
                                                    tmp_path, error, use_cpus,
                                                    no_children):
        def before(is_parent, start, pids):
            if is_parent:
                _wait_for_workers(pids, 3)
                raise error("parent failed")
            time.sleep(0.05)

        use_cpus(3)
        pids = _block_pids(monkeypatch, tmp_path, before)
        with pytest.raises(error, match="parent failed"):
            run_null_study([0.0], [1000], replications=400, seed=3)
        assert len(set(pids())) == 3
        # of 100 blocks, the children ran the few they held when killed
        assert len(pids()) < 20
        assert no_children()

    @pytest.mark.parametrize("count", [1024, 1025, 20_000])
    def test_more_tasks_than_the_claims_pipe_holds(self, monkeypatch, forks,
                                                   count, no_children):
        # all claims are written before the fork, 1024 on Linux: up to 1024
        # tasks each claim is one task, and above it a run of consecutive
        # tasks, two in one claim at 1025 and 19 or 20 in each at 20000
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 3)
        squares, done = _pool.shared(count, np.int64), []

        def task(index):
            squares[index] = index * index

        _pool.run_forked(task, count, done=done.append)
        assert len(forks) == 2
        assert sorted(done) == list(range(count))
        assert (squares == np.arange(count) ** 2).all()
        assert no_children()

    def test_claims_without_select_pipe_buf(self, monkeypatch, tmp_path,
                                            use_cpus):
        # where select has no PIPE_BUF the pool writes 128 claims, POSIX's
        # least PIPE_BUF of 512 bytes; 200 one-row blocks then take claims
        # of one or two blocks and give the study of a normal run; where
        # os.fork is missing too, the pool is this process alone, and a CSV
        # file of several row ranges is read as one
        rng = np.random.default_rng(8)
        rows = zip(rng.uniform(0.05, 0.95, 400).tolist(),
                   rng.integers(0, 2, 400).tolist())
        path = tmp_path / "d.csv"
        path.write_text("p,y\n" + "".join(f"{p!r},{y}\n" for p, y in rows))
        code = ("import json, os, select, sys; "
                "del select.PIPE_BUF, os.fork; "
                "from calibwalk import _pool, dataio, simulation; "
                "assert _pool._CLAIMS == 128; "
                "dataio._RANGE_BYTES = 4; "
                "data = dataio.read_dataset_csv(sys.argv[1]); "
                "print(json.dumps([dataio.study_to_dict("
                "simulation.run_null_study([-1.0], [4099], "
                "replications=200, seed=2)), data.predictions.tolist(), "
                "data.outcomes.tolist()]))")
        env = {**os.environ,
               "PYTHONPATH": str(Path(simulation.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code, str(path)],
                                env=env, capture_output=True, text=True,
                                check=True)
        use_cpus(4)
        monkeypatch.setattr(dataio, "_RANGE_BYTES", 4)
        data = read_dataset_csv(path)
        want = [dataio.study_to_dict(
            run_null_study([-1.0], [4099], replications=200, seed=2)),
            data.predictions.tolist(), data.outcomes.tolist()]
        assert json.loads(result.stdout) == want

    def test_child_runs_on_while_the_parent_is_busy(self, monkeypatch,
                                                    forks, no_children):
        # the parent's task takes 1 s: the child runs all the others
        # meanwhile, and every result is in the shared arrays
        parent = os.getpid()
        ran, values = _pool.shared(12, np.int64), _pool.shared((12, 20_000))

        def task(index):
            if os.getpid() == parent:
                time.sleep(1.0)
            values[index] = index
            ran[index] = os.getpid()

        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
        done = []
        _pool.run_forked(task, 12, done=done.append)
        assert len(forks) == 1
        assert sorted(done) == list(range(12))
        assert (values == np.arange(12.0)[:, None]).all()
        assert (ran != 0).all()
        assert list(ran).count(parent) <= 1
        assert no_children()

    @pytest.mark.parametrize("fail, error, message", [
        (_exit_three, RuntimeError, "worker processes exited with statuses "
                                    "[3]; 1 of 8 tasks did not finish"),
        (_raise_unpicklable, RuntimeError, "Unpicklable: cannot travel"),
        (_raise_long, ValueError, "x" * 1_000_000),
    ], ids=["exit", "unpicklable", "long"])
    def test_failed_child_reaches_the_caller(self, monkeypatch, fail, error,
                                             message, no_children):
        # the child fails in its first task, while the parent waits for it
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
        parent, failed = os.getpid(), _pool.shared(1, np.int64)

        def task(index):
            if os.getpid() != parent:
                failed[0] = 1
                fail()
            deadline = time.monotonic() + 30
            while not failed[0] and time.monotonic() < deadline:
                time.sleep(0.01)

        with pytest.raises(error) as caught:
            _pool.run_forked(task, 8)
        assert type(caught.value) is error
        assert str(caught.value) == message
        if fail is _exit_three:
            assert caught.value.__cause__ is None
        else:
            assert "in a worker process" in str(caught.value.__cause__)
        assert no_children()

    def test_failed_fork_runs_on_the_workers_started(self, monkeypatch,
                                                     tmp_path, use_cpus,
                                                     no_children):
        # every second fork fails, as under a process limit: each pool of
        # four workers runs on this process and one child
        fork, forks = os.fork, []

        def second_fails():
            forks.append(1)
            if len(forks) % 2 == 0:
                raise BlockingIOError(errno.EAGAIN, "fork failed")
            return fork()

        rng = np.random.default_rng(8)
        rows = zip(rng.uniform(0.05, 0.95, 400).tolist(),
                   rng.integers(0, 2, 400).tolist())
        path = tmp_path / "d.csv"
        path.write_text("p,y\n" + "".join(f"{p!r},{y}\n" for p, y in rows))
        data = build_dataset(rng.uniform(0.05, 0.95, 1000),
                             rng.integers(0, 2, 1000))

        def run():
            return (run_power_study("logit_linear", [0.0], [1.0, 2.0], [1000],
                                    replications=30, seed=4),
                    stattests._simulate_null_statistics(data, 600, seed=5),
                    read_dataset_csv(path))

        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
        want_study, want_null, want_table = run()
        # 4 CPUs, with the memory budget lifted and the file cut into 4 row
        # ranges
        use_cpus(4)
        monkeypatch.setattr(dataio, "_RANGE_BYTES", 4)
        monkeypatch.setattr(os, "fork", second_fails)
        study, null, table = run()
        # three pools, each with one fork made and one failed
        assert len(forks) == 6
        assert study == want_study
        for got, want in zip(study, want_study):
            for test in want.pvalues:
                np.testing.assert_array_equal(
                    got.pvalues[test].view(np.uint64),
                    want.pvalues[test].view(np.uint64))
        for got, want in zip(null, want_null):
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))
        assert table.predictions.tobytes() == want_table.predictions.tobytes()
        assert table.outcomes.tobytes() == want_table.outcomes.tobytes()
        assert no_children()

    def test_another_thread_leaves_one_worker(self, monkeypatch, tmp_path,
                                              forks, thread_alive,
                                              no_children):
        # 8 CPUs and a file of 8 row ranges, but while another Python thread
        # runs the pool is this process alone: it forks nothing, the file
        # is one range, and the tasks run in order
        rows = [(0.01 * i, i % 2) for i in range(1, 60)]
        path = tmp_path / "d.csv"
        path.write_text("p,y\n" + "".join(f"{p!r},{y}\n" for p, y in rows))
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(dataio, "_RANGE_BYTES", 4)
        forked = read_dataset_csv(path)
        assert len(forks) == 7
        row_bounds, workers, done = dataio._row_bounds, [], []

        def counted(path, count):
            workers.append(count)
            return row_bounds(path, count)

        def task(index):
            if index == 5:
                raise KeyError(index)

        monkeypatch.setattr(dataio, "_row_bounds", counted)
        with thread_alive():
            data = read_dataset_csv(path)
            with pytest.raises(KeyError) as caught:
                _pool.run_forked(task, 8, done=done.append)
        assert workers == [1]
        assert len(forks) == 7
        assert data.predictions.tobytes() == forked.predictions.tobytes()
        assert data.outcomes.tobytes() == forked.outcomes.tobytes()
        assert done == [0, 1, 2, 3, 4]
        assert type(caught.value) is KeyError
        assert caught.value.__cause__ is None
        assert no_children()

    def test_one_block_study_never_forks(self, monkeypatch, no_children):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(os, "fork", no_fork)
        # 4 rows at n = 1000 are one block of the real size
        summary = run_power_study("logit_power", [0.0], [1.0], [1000],
                                  replications=4, seed=1)[0]
        assert len(summary.pvalues["lr"]) == 4
        assert no_children()

    def test_progress_reports_each_cell_once(self, monkeypatch, use_cpus,
                                             no_children):
        use_cpus(3)
        calls = []
        summaries = run_null_study(
            [-1.0, 0.0], [7, 1000], replications=9, seed=2,
            progress=lambda done, total, summary: calls.append(
                (done, total, summary.scenario.label)))
        assert [done for done, _, _ in calls] == [1, 2, 3, 4]
        assert {total for _, total, _ in calls} == {4}
        assert sorted(label for _, _, label in calls) == \
            sorted(s.scenario.label for s in summaries)
        assert no_children()

    @pytest.mark.parametrize("n, workers",
                             [(1000, 18), (100_000, 7), (506_811, 2),
                              (506_812, 1)])
    def test_memory_budget_caps_the_workers(self, monkeypatch, n, workers,
                                            no_children):
        # 64 CPUs under the real budget
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 64)
        chosen = []

        def in_order(task, count, scratch_bytes, done):
            chosen.append(_pool._workers(count, scratch_bytes))
            for index in range(count):
                task(index)
                done(index)

        monkeypatch.setattr(simulation, "run_forked", in_order)
        monkeypatch.setattr(simulation, "_run_block",
                            lambda scenario, start, stop, pvalues: 0)
        run_null_study([0.0], [n], replications=5000, seed=0)
        assert chosen == [workers]
        assert no_children()


class TestPvalueEcdf:
    def test_point_mass(self):
        grid, values = pvalue_ecdf([0.5] * 10)
        assert values[grid < 0.5].max() == 0.0
        assert values[grid >= 0.5].min() == 1.0

    def test_two_point_sample(self):
        grid, values = pvalue_ecdf([0.25, 0.75])
        inside = (grid >= 0.25) & (grid < 0.75)
        np.testing.assert_array_equal(values[inside], 0.5)

    def test_grid_size(self):
        grid, values = pvalue_ecdf([0.1])
        assert grid.shape == values.shape == (512,)

    def test_uniform_sample_tracks_identity(self):
        rng = np.random.default_rng(12)
        grid, values = pvalue_ecdf(rng.random(100_000))
        assert np.max(np.abs(values - grid)) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pvalue_ecdf([])

    # a NaN or a value outside [0, 1] would end the ECDF below 1.0 or start
    # it above 0.0
    @pytest.mark.parametrize("pvalues, first_bad", [
        ([math.nan, 0.5], "nan"),
        ([1.5, 0.2], "1.5"),
        ([-0.1], "-0.1"),
    ])
    def test_values_outside_unit_interval_rejected(self, pvalues, first_bad):
        with pytest.raises(ValueError,
                           match=rf"outside \[0, 1\]: {first_bad}$"):
            pvalue_ecdf(pvalues)
