"""Walk tests, comparators, and simulation-based variants."""

import dataclasses
import math
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibwalk import (
    analyze,
    build_dataset,
    chi_square_sf,
    conditional_sup_cdf,
    cumulative_process,
    fit_logistic_recalibration,
    hosmer_lemeshow_test,
    kolmogorov_cdf,
    monte_carlo_test,
    std_normal_cdf,
    sup_abs_bm_sf,
    walk_statistics,
    weak_calibration_lr_test,
)
from calibwalk import _pool, dataio, simulation, stattests
from calibwalk.stattests import bb_test_from_process, bm_test_from_process
from calibwalk.simulation import SimulationScenario, generate_dataset

PI_GRID_5 = [0.1, 0.3, 0.5, 0.7, 0.9]


def _random_dataset(seed, n=200, lo=0.05, hi=0.9):
    rng = np.random.default_rng(seed)
    p = rng.uniform(lo, hi, n)
    y = (rng.random(n) < p).astype(float)
    return build_dataset(p, y)


def _walk_tests(data):
    """The BM and BB results as ``analyze`` reports them."""
    _, report = analyze(data, hl=False, lr=False)
    return report.bm, report.bb


def _mle_at_identity_dataset():
    # within each prediction level the event count equals the expectation
    # exactly, so (intercept, slope) = (0, 1) solves the score equations
    p = [0.25] * 4 + [0.75] * 4
    y = [1, 0, 0, 0] + [1, 1, 1, 0]
    return build_dataset(p, y)


def _recalibration_dataset(seed, a, b, n=40):
    """Predictions expit(x) with x ~ N(0, 1.5^2), and outcomes drawn at
    log-odds a + b x."""
    rng = np.random.default_rng(seed)
    x = 1.5 * rng.standard_normal(n)
    y = rng.random(n) < stattests._expit(a + b * x)
    return build_dataset(stattests._expit(x), y.astype(float))


def _irls_rows():
    """(name, dataset, converged, iterations) of fits that stop in every
    way; the "halved" row's first Newton step raises the deviance, so that
    step is halved."""
    base = _recalibration_dataset(9, 0.0, 1.0)
    return [
        ("3 iterations", base, True, 3),
        ("4 iterations", _recalibration_dataset(0, 0.0, 1.0), True, 4),
        ("5 iterations", _recalibration_dataset(1, 0.0, 1.0), True, 5),
        ("halved", _recalibration_dataset(108, -1.0, 0.3), True, 5),
        ("all 0", build_dataset(base.predictions, [0] * 40), False, 0),
        ("all 1", build_dataset(base.predictions, [1] * 40), False, 0),
        ("constant", build_dataset([0.5] * 40, [0, 1, 1, 1] * 10), False, 1),
        ("past 50", _recalibration_dataset(68, 0.5, 2.0), False, 9),
    ]


def _fit_bits(fit):
    """A fit's six fields, each float as its exact hex form."""
    return tuple(v.hex() if isinstance(v, float) else (type(v), v)
                 for v in dataclasses.astuple(fit))


class TestBMTest:
    def test_pvalue_matches_reference_survival(self):
        for seed in range(5):
            data = _random_dataset(seed)
            result, _ = _walk_tests(data)
            assert result.p_value == pytest.approx(
                sup_abs_bm_sf(result.s_star), abs=1e-12
            )
            assert 0.0 <= result.p_value <= 1.0

    def test_statistics_match_walk(self):
        data = _random_dataset(3)
        stats = walk_statistics(cumulative_process(data))
        result = bm_test_from_process(stats)
        assert result.s_star == stats.s_star
        assert result.c_star == stats.c_star
        assert result.location == stats.argmax_bm
        assert result == _walk_tests(data)[0]

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 0.9, 200)
        y = (rng.random(200) < p).astype(int)
        base, _ = _walk_tests(build_dataset(p, y))
        order = rng.permutation(200)
        assert _walk_tests(build_dataset(p[order], y[order]))[0] == base

    def test_small_sample_warning(self):
        _, report = analyze(build_dataset([0.2, 0.6], [0, 1]), hl=False,
                            lr=False)
        assert report.dataset.small_sample_warning

    def test_no_warning_for_large_variance(self):
        _, report = analyze(_random_dataset(1, n=500), hl=False, lr=False)
        assert not report.dataset.small_sample_warning


class TestBBTest:
    def test_component_invariants(self):
        for seed in range(5):
            _, result = _walk_tests(_random_dataset(seed))
            assert result.p_a == pytest.approx(
                2.0 * std_normal_cdf(-abs(result.s_n)), abs=1e-12
            )
            assert result.p_b == pytest.approx(
                1.0 - kolmogorov_cdf(result.b_star), abs=1e-12
            )
            fisher = -2.0 * (math.log(result.p_a) + math.log(result.p_b))
            assert result.p_unified == pytest.approx(
                chi_square_sf(fisher, 4), abs=1e-12
            )

    def test_degenerate_components_combine_to_one(self):
        assert chi_square_sf(0.0, 4) == 1.0

    def test_underflowing_components_stay_defined(self):
        # constant predictions with all events: the terminal value is huge
        # (p_a underflows to 0) while the bridged walk is exactly linear
        data = build_dataset([0.5] * 2000, [1] * 2000)
        _, result = _walk_tests(data)
        assert result.p_a == 0.0
        assert result.b_star == pytest.approx(0.0, abs=1e-9)
        assert result.p_unified == 0.0

    def test_exact_zero_terminal(self):
        data = build_dataset([0.5, 0.5], [0, 1])
        _, result = _walk_tests(data)
        assert result.s_n == 0.0
        assert result.p_a == 1.0

    def test_subnormal_terminal_tail_keeps_both_roundings(self):
        # where 0.5 * erfc rounds into the subnormals, p_a keeps that
        # rounding and the Fisher sum takes the log of the unscaled erfc
        stats = walk_statistics(cumulative_process(_random_dataset(0)))
        rounded = 0
        for s_n in np.linspace(37.6, 38.2, 61).tolist():
            tail = math.erfc(s_n / math.sqrt(2.0))
            rounded += math.log(2.0 * (0.5 * tail)) != math.log(tail)
            result = bb_test_from_process(dataclasses.replace(stats, s_n=s_n))
            assert result.p_a == 2.0 * std_normal_cdf(-s_n)
            fisher = -2.0 * (math.log(tail) + math.log(result.p_b))
            assert result.p_unified == chi_square_sf(fisher, 4)
        assert rounded


class TestConditionalBMTest:
    """The terminal-value p and the conditional maximum p of a report:
    ``report.bb.p_a`` and ``1 - conditional_sup_cdf(s_star, s_n)``."""

    def test_reduces_to_kolmogorov_at_zero_terminal(self):
        data = build_dataset([0.5, 0.5], [0, 1])
        bm, bb = _walk_tests(data)
        assert bb.s_n == 0.0
        assert bb.p_a == 1.0
        p_cond = 1.0 - conditional_sup_cdf(bm.s_star, bb.s_n)
        assert p_cond == pytest.approx(
            1.0 - kolmogorov_cdf(bm.s_star), abs=1e-12
        )

    def test_enumeration_sweep_in_range(self):
        import itertools

        for ys in itertools.product((0, 1), repeat=5):
            data = build_dataset(PI_GRID_5, list(ys))
            stats = walk_statistics(cumulative_process(data))
            assert stats.s_star >= abs(stats.s_n)
            p_a = bb_test_from_process(stats).p_a
            p_cond = 1.0 - conditional_sup_cdf(stats.s_star, stats.s_n)
            assert 0.0 <= p_a <= 1.0
            assert 0.0 <= p_cond <= 1.0


class TestHosmerLemeshow:
    def test_perfect_agreement(self):
        data = build_dataset([0.25] * 4 + [0.75] * 4,
                             [1, 0, 0, 0, 1, 1, 1, 0])
        result = hosmer_lemeshow_test(data, groups=2, df_rule="g")
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_computed_statistic(self):
        # two rank groups of two, constant 0.5, observed (2, 0)
        data = build_dataset([0.5] * 4, [1, 1, 0, 0])
        result = hosmer_lemeshow_test(data, groups=2, df_rule="g")
        assert result.statistic == pytest.approx(4.0, abs=1e-12)
        assert result.df == 2
        assert [g.size for g in result.group_table] == [2, 2]
        assert [g.observed for g in result.group_table] == [2.0, 0.0]

    def test_group_sizes_sum_to_n(self):
        data = _random_dataset(2, n=103)
        result = hosmer_lemeshow_test(data, groups=10)
        assert sum(g.size for g in result.group_table) == 103
        assert result.df == 8

    def test_validation(self):
        data = _random_dataset(0, n=30)
        with pytest.raises(ValueError, match="at least 2"):
            hosmer_lemeshow_test(data, groups=1)
        with pytest.raises(ValueError, match="smaller than groups"):
            hosmer_lemeshow_test(_random_dataset(0, n=5), groups=10)
        with pytest.raises(ValueError, match="df_rule"):
            hosmer_lemeshow_test(data, groups=10, df_rule="bonkers")
        with pytest.raises(ValueError, match="degrees of freedom"):
            hosmer_lemeshow_test(data, groups=2, df_rule="g_minus_2")

    def test_groups_must_be_an_integer(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CALIBWALK_TIMESTAMP", "2024-01-01T00:00:00+00:00")
        data = _random_dataset(0, n=30)
        for groups in (2.5, True, "10"):
            with pytest.raises(ValueError, match="groups must be an integer"):
                hosmer_lemeshow_test(data, groups=groups)
        # a numpy integer is taken as a Python int, so the report writes
        result = hosmer_lemeshow_test(data, groups=np.int64(10))
        assert result == hosmer_lemeshow_test(data, groups=10)
        assert type(result.groups) is int and type(result.df) is int
        # analyze checks groups before it compares n with it
        for groups in (5.5, "10"):
            with pytest.raises(ValueError, match="groups must be an integer"):
                analyze(_random_dataset(0, n=3), groups=groups)
        _, report = analyze(data, groups=np.int64(10))
        dataio.write_report_json(report, tmp_path / "report.json")
        _, want = analyze(data, groups=10)
        dataio.write_report_json(want, tmp_path / "want.json")
        assert (tmp_path / "report.json").read_bytes() == \
            (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("n, hl", [(5, True), (30, False)],
                             ids=["n_below_groups", "hl_off"])
    def test_analyze_checks_df_rule_when_hl_is_skipped(self, n, hl):
        with pytest.raises(ValueError, match="unknown df_rule 'bogus'"):
            analyze(_random_dataset(0, n=n), df_rule="bogus", hl=hl)

    def test_null_calibration_simulation(self):
        # externally fixed predictions: the statistic is chi-square with
        # g degrees of freedom, slightly conservative
        scenario = SimulationScenario(
            family="null", n=1000, replications=2500, seed=4, beta0=-1.0,
        )
        rejections = 0
        for r in range(scenario.replications):
            data = generate_dataset(scenario, r)
            if hosmer_lemeshow_test(data, 10, "g").p_value < 0.05:
                rejections += 1
        assert rejections / scenario.replications == pytest.approx(
            0.05, abs=0.01
        )


class TestChiSquareSF:
    def test_even_df_closed_forms(self):
        assert chi_square_sf(0.0, 2) == 1.0
        assert chi_square_sf(5.1726, 4) == pytest.approx(
            math.exp(-0.5 * 5.1726) * (1.0 + 0.5 * 5.1726), abs=1e-14
        )

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 3, 4, 5, 8, 9, 10):
            for x in (0.01, 0.5, 2.0, 7.7, 15.0, 40.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(scipy_stats.chi2.sf(x, df)), rel=1e-9, abs=1e-300
                )

    def test_large_df_against_scipy(self):
        # x / 2 >= 700 underflowed the even-df closed form to p = 0, and
        # a 500-term cap cut the lower-tail series short for df >= ~10000
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1400, 1498, 3000, 20000, 100000):
            for x in (0.95 * df, float(df), 1.0062 * df, 1.05 * df):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(scipy_stats.chi2.sf(x, df)), rel=1e-9
                )
        assert chi_square_sf(1507.2, 1498) == pytest.approx(0.4286, abs=1e-4)

    def test_huge_df_against_scipy(self):
        # just above x = df the continued fraction needs ~sqrt(df) steps,
        # more than a fixed iteration cap allows past df ~ 1e6
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (2_000_000, 4_000_000, 10_000_000):
            for x in (df + 2.0, 0.999 * df, float(df), 1.001 * df):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(scipy_stats.chi2.sf(x, df)), rel=1e-9
                )

    def test_non_finite_statistic(self):
        for df in (1, 2, 4, 7, 8, 100, 10_000_000):
            assert chi_square_sf(math.inf, df) == 0.0
            with pytest.raises(ValueError):
                chi_square_sf(math.nan, df)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 4)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, math.inf)
        # a float, a bool or a fractional df is not a degree-of-freedom count
        for df in (2.0, True, 2.5):
            with pytest.raises(ValueError, match="df must be an integer"):
                chi_square_sf(3.0, df)


def _leaves(n, leaf, values=None):
    """The (lo, hi) leaves that ``_pairwise`` cuts a length-n row into at a
    leaf size of ``leaf``, and the row sums of ``values`` (zeros if None)
    as the IRLS computes its sums: each leaf by ``np.add.reduce``, joined
    by the recursion."""
    values = np.zeros(n) if values is None else values
    seen = []

    def leaf_sums(lo, hi):
        seen.append((lo, hi))
        return np.add.reduce(values[..., lo:hi], axis=-1)

    with mock.patch.object(stattests, "_LEAF_VALUES", leaf):
        sums = stattests._pairwise(leaf_sums, 0, n)
    return seen, sums


@st.composite
def _rows_to_sum(draw):
    """A leaf size, and a (1 or 3, n) block of floats of exponents over
    +-300 with some signed zeros, n from 1 to more than 3 leaves.  Leaves
    of 64 values are runs of up to numpy's 128-value block."""
    leaf = draw(st.sampled_from([stattests._LEAF_VALUES, 200, 64]))
    n = draw(st.one_of(
        st.integers(1, 7),
        st.sampled_from([leaf - 1, leaf, leaf + 1, 2 * leaf + 9]),
        st.integers(1, 3 * leaf + 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.sampled_from([1, 3])), n)
    values = rng.standard_normal(shape) * np.exp2(
        rng.integers(-300, 301, shape))
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[zeros] = np.copysign(0.0, rng.standard_normal(shape))[zeros]
    return leaf, values


class TestLeafSums:
    """The IRLS adds its terms leaf by leaf and relies on the joined leaf
    sums having the bits of numpy's own pairwise sum of the row; these
    tests fail if a numpy release changes how it splits a sum."""

    @settings(max_examples=150, deadline=None)
    @given(_rows_to_sum())
    def test_joined_leaves_equal_the_row_reduce(self, case):
        leaf, values = case
        want = np.add.reduce(values, axis=-1)
        _, got = _leaves(values.shape[-1], leaf, values)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_leaves_follow_numpys_split(self):
        # numpy's first part is n // 2 rounded down to a multiple of 8
        assert _leaves(2 * 200 + 9, 200)[0] == [(0, 200), (200, 304),
                                                (304, 409)]
        # a run numpy sums in one loop is not cut below its 128 values
        assert _leaves(200, 64)[0] == [(0, 96), (96, 200)]
        assert _leaves(7, 200)[0] == [(0, 7)]


class TestLogisticRecalibration:
    def test_identity_is_fixed_point(self):
        fit = fit_logistic_recalibration(_mle_at_identity_dataset())
        assert fit.converged
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)

    def test_all_zero_outcomes_flagged(self):
        data = build_dataset([0.2, 0.4, 0.6, 0.8], [0, 0, 0, 0])
        fit = fit_logistic_recalibration(data)
        assert not fit.converged

    def test_constant_predictions_flagged(self):
        # the slope is unidentifiable when logit(p) is constant
        data = build_dataset([0.5] * 6, [1, 0, 1, 0, 1, 1])
        fit = fit_logistic_recalibration(data)
        assert not fit.converged

    def test_a_row_fits_alike_in_any_block(self):
        rows = _irls_rows()
        fits = [fit_logistic_recalibration(data) for _, data, _, _ in rows]
        for (name, _, converged, iterations), fit in zip(rows, fits):
            assert (fit.converged, fit.iterations) == (converged,
                                                       iterations), name
        assert max(abs(fits[-1].intercept), abs(fits[-1].slope)) > 50
        predictions = np.array([data.predictions for _, data, _, _ in rows])
        outcomes = np.array([data.outcomes for _, data, _, _ in rows])
        for order in ([0, 1, 2, 3, 4, 5, 6, 7], [5, 2, 7, 0, 6, 3, 1, 4]):
            block = stattests._fit_rows(predictions[order], outcomes[order])
            assert [_fit_bits(fit) for fit in block] == \
                [_fit_bits(fits[i]) for i in order]

    def test_a_multi_leaf_row_fits_alike_in_any_block(self):
        # three leaves of unequal depth; the rows stop after 3, 5 and 7
        # iterations, so rows leave the block mid-fit
        n = 2 * stattests._LEAF_VALUES + 9
        assert len(_leaves(n, stattests._LEAF_VALUES)[0]) == 3
        rows = [_recalibration_dataset(seed, a, b, n) for seed, a, b
                in ((1, 0.0, 1.0), (2, 0.3, 0.6), (5, -3.0, 1.0))]
        fits = [fit_logistic_recalibration(data) for data in rows]
        assert [fit.iterations for fit in fits] == [3, 5, 7]
        predictions = np.array([data.predictions for data in rows])
        outcomes = np.array([data.outcomes for data in rows])
        for order in ([0, 1, 2], [2, 1, 0]):
            block = stattests._fit_rows(predictions[order], outcomes[order])
            assert [_fit_bits(fit) for fit in block] == \
                [_fit_bits(fits[i]) for i in order]

    def test_fit_bits_do_not_depend_on_the_leaf_size(self, monkeypatch):
        # a leaf of at least n is one reduce over the whole row; 64 is below
        # numpy's 128-value block, which is never cut
        named = {name: data for name, data, _, _ in _irls_rows()}
        datasets = [named["halved"], named["past 50"], named["constant"],
                    _recalibration_dataset(11, 0.2, 0.8, 50_000),
                    _recalibration_dataset(12, -0.5, 1.3, 50_000)]
        large = datasets[-2:]
        block = (np.array([data.predictions for data in large]),
                 np.array([data.outcomes for data in large]))
        seen = []
        for leaf in (64, 1000, 50_000):
            monkeypatch.setattr(stattests, "_LEAF_VALUES", leaf)
            seen.append([_fit_bits(fit_logistic_recalibration(data))
                         for data in datasets]
                        + [_fit_bits(fit)
                           for fit in stattests._fit_rows(*block)])
        assert len(_leaves(50_000, 64)[0]) > 256
        assert seen[0] == seen[1] == seen[2]

    def test_deviance_decreases_from_offset_model(self):
        data = _random_dataset(9, n=400)
        fit = fit_logistic_recalibration(data)
        rough = -2.0 * float(np.sum(
            data.outcomes * np.log(data.predictions)
            + (1 - data.outcomes) * np.log(1 - data.predictions)
        ))
        assert fit.converged
        assert fit.deviance <= rough + 1e-9

    @pytest.mark.parametrize("kind", [
        dict(family="logit_linear", a=0.25, b=2.0),
        dict(family="logit_power", b=0.5),
        dict(family="null", beta0=-1.0),
    ], ids=["logit-linear", "logit-power", "null"])
    def test_matches_scipy_optimum(self, kind):
        optimize = pytest.importorskip("scipy.optimize")
        special = pytest.importorskip("scipy.special")
        data = generate_dataset(
            SimulationScenario(n=2000, replications=1, seed=7, **kind), 0)
        x = np.log(data.predictions) - np.log1p(-data.predictions)
        y = data.outcomes

        def nll(theta):
            eta = theta[0] + theta[1] * x
            return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

        def gradient(theta):
            residual = special.expit(theta[0] + theta[1] * x) - y
            return np.array([residual.sum(), residual @ x])

        oracle = optimize.minimize(nll, [0.0, 1.0], jac=gradient,
                                   method="L-BFGS-B",
                                   options={"gtol": 1e-12, "ftol": 1e-15})
        fit = fit_logistic_recalibration(data)
        assert fit.converged
        assert fit.intercept == pytest.approx(oracle.x[0], abs=1e-7)
        assert fit.slope == pytest.approx(oracle.x[1], abs=1e-7)
        assert fit.deviance == pytest.approx(2.0 * oracle.fun, rel=1e-10)
        assert fit.null_deviance == pytest.approx(2.0 * nll([0.0, 1.0]),
                                                  rel=1e-10)

    @pytest.mark.parametrize("discordant", [0, 3],
                             ids=["separated", "overlapping"])
    def test_saturated_deviance_matches_mpmath(self, discordant):
        # predictions down to 1e-15 and up to 1 - 1e-15 (|log-odds| about
        # 34.5), past the 1e-12 clip that a log-form deviance would need
        mpmath = pytest.importorskip("mpmath")
        tail = np.geomspace(1e-15, 0.3, 40)
        p = np.concatenate([tail, 1.0 - tail])
        y = (p > 0.5).astype(float)
        if discordant:
            y[:discordant], y[-discordant:] = 1.0, 0.0
        data = build_dataset(p, y)
        fit = fit_logistic_recalibration(data)
        x = np.log(data.predictions / (1.0 - data.predictions))

        def exact(eta):
            with mpmath.workdps(30):
                terms = (mpmath.log1p(mpmath.exp(e)) - o * e
                         for e, o in zip(map(mpmath.mpf, eta.tolist()),
                                         data.outcomes.tolist()))
                return float(2 * mpmath.fsum(terms))

        assert fit.null_deviance == pytest.approx(exact(x), rel=1e-13)
        assert fit.converged == bool(discordant)
        if discordant:
            eta = x * fit.slope + fit.intercept
            assert fit.deviance == pytest.approx(exact(eta), rel=1e-13)


class TestWeakCalibrationLR:
    def test_identity_mle_gives_zero_statistic(self):
        result = weak_calibration_lr_test(_mle_at_identity_dataset())
        assert result.converged
        assert abs(result.lr_statistic) < 1e-6
        assert result.p_value == pytest.approx(1.0, abs=1e-6)

    def test_statistic_nonnegative(self):
        for seed in range(10):
            result = weak_calibration_lr_test(_random_dataset(seed, n=150))
            if result.converged:
                assert result.lr_statistic >= -1e-8
                assert 0.0 <= result.p_value <= 1.0

    def test_nonconverged_has_no_pvalue(self):
        data = build_dataset([0.2, 0.4, 0.6, 0.8], [0, 0, 0, 0])
        result = weak_calibration_lr_test(data)
        assert not result.converged
        assert result.p_value is None

    def test_scratch_memory_per_row(self):
        # three float buffers of n (log-odds, flip and means), plus three
        # float terms and a bool mask of one leaf: 28 bytes a row here
        data = _random_dataset(5, n=100_000)
        tracemalloc.start()
        try:
            weak_calibration_lr_test(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * data.n

    def test_pvalue_is_two_df_survival(self):
        result = weak_calibration_lr_test(_random_dataset(4, n=300))
        assert result.converged
        assert result.p_value == pytest.approx(
            math.exp(-0.5 * max(result.lr_statistic, 0.0)), abs=1e-12
        )


class TestMonteCarloTest:
    def test_seeded_determinism(self):
        data = _random_dataset(6, n=60)
        stats = walk_statistics(cumulative_process(data))
        first = monte_carlo_test(data, 2000, 7, stats)
        assert first == monte_carlo_test(data, 2000, 7, stats)
        assert (first.replications, first.seed) == (2000, 7)

    def test_add_one_estimator_bounds(self):
        data = _random_dataset(8, n=40)
        result = monte_carlo_test(data, 99, 1,
                                  walk_statistics(cumulative_process(data)))
        assert 1.0 / 100.0 <= result.bm_p_value <= 1.0
        assert 0.0 < result.bb_p_value <= 1.0

    def test_validation(self):
        data = _random_dataset(0, n=10)
        with pytest.raises(ValueError, match="replications"):
            monte_carlo_test(data, 0, 1,
                             walk_statistics(cumulative_process(data)))

    @pytest.mark.parametrize("name", ["replications", "seed"])
    @pytest.mark.parametrize("value", [True, False, 2.5, -1])
    def test_rejects_bools(self, name, value):
        # analyze(data, mc=True) once ran one replicate, seed=False ran
        # seed 0, replications=2.5 raised a TypeError and seed=-1 numpy's
        # own error
        data = _random_dataset(0, n=10)
        counts = {"replications": 5, "seed": 1, name: value}
        if value == -1:
            message = f"{name} must be >= {1 if name == 'replications' else 0}"
        else:
            message = f"{name} must be an integer, got {value}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            monte_carlo_test(data, counts["replications"], counts["seed"],
                             walk_statistics(cumulative_process(data)))
        if counts["replications"]:  # mc=False runs no Monte Carlo test
            with pytest.raises(ValueError, match=f"^{message}$"):
                analyze(data, hl=False, lr=False,
                        mc=counts["replications"], seed=counts["seed"])

    def test_agreement_with_asymptotic_at_large_n(self):
        # under the null at n = 1000 the exact p runs ~0.01 below the
        # asymptotic p; 20k replications keep the Monte Carlo noise from
        # stacking on top of that gap
        scenario = SimulationScenario(
            family="null", n=1000, replications=200, seed=31, beta0=-1.0,
        )
        agree = 0
        for r in range(200):
            data = generate_dataset(scenario, r)
            _, report = analyze(data, hl=False, lr=False, mc=20_000,
                                seed=1000 + r)
            p_asymptotic = report.bm.p_value
            p_mc = report.monte_carlo.bm_p_value
            if abs(p_asymptotic - p_mc) < 0.02:
                agree += 1
        assert agree / 200 >= 0.95


# values per block of the Monte Carlo engine; the oracle cases straddle it
BLOCK_VALUES = stattests._BLOCK_VALUES


def _per_replicate_null(data, replications, seed):
    """The Monte Carlo null written one replicate at a time, as the oracle."""
    p = data.predictions
    variances = p * (1.0 - p)
    times = np.cumsum(variances) / variances.sum()
    sqrt_t = math.sqrt(variances.sum())
    rng = np.random.default_rng(seed)
    s_star, b_star, s_n = (np.empty(replications) for _ in range(3))
    for r in range(replications):
        u = rng.random(data.n)
        w = np.cumsum((u < p) - p) / sqrt_t
        s_star[r] = np.abs(w).max()
        b_star[r] = np.abs(w - times * w[-1]).max()
        s_n[r] = w[-1]
    return s_star, b_star, s_n


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


ENGINE_CASES = [
    (1, 10),  # the bridged walk is [0.0]: its maximum must be +0.0
    (7, 50),
    (1000, 300),  # three blocks, the last one short
    (BLOCK_VALUES // 3 + 1, 5),  # blocks of 2 rows, the last one short
    (BLOCK_VALUES - 1, 3),
    (BLOCK_VALUES, 3),
    (BLOCK_VALUES + 1, 3),  # one-row blocks
]



class TestMonteCarloEngine:
    @pytest.mark.parametrize("n, replications", ENGINE_CASES)
    @pytest.mark.parametrize("direct", [True, False])
    def test_bit_identical_to_per_replicate_oracle(self, n, replications,
                                                   direct):
        data = _random_dataset(n, n=n)
        s_star, b_star, s_n = stattests._simulate_null_statistics(
            data, replications, seed=11
        )
        want_s, want_b, want_n = _per_replicate_null(data, replications, 11)
        np.testing.assert_array_equal(_bits(s_star), _bits(want_s))
        np.testing.assert_array_equal(_bits(b_star), _bits(want_b))
        np.testing.assert_array_equal(_bits(s_n), _bits(want_n))
        # the public test reads the same draw, called directly or through
        # analyze, which computes the observed statistics itself
        observed = walk_statistics(cumulative_process(data))
        if direct:
            result = monte_carlo_test(data, replications, 11, observed)
        else:
            _, report = analyze(data, hl=False, lr=False, mc=replications,
                                seed=11)
            result = report.monte_carlo

        def add_one(exceeds):
            return (1 + int(np.sum(exceeds))) / (replications + 1)

        p_a = add_one(np.abs(want_n) >= abs(observed.s_n))
        p_b = add_one(want_b >= observed.b_star)
        half = -math.log(p_a) - math.log(p_b)  # half of Fisher's statistic
        assert result.bm_p_value == add_one(want_s >= observed.s_star)
        # chi-square survival with 4 df at 2 h is exp(-h) (1 + h)
        assert result.bb_p_value == pytest.approx(
            math.exp(-half) * (1.0 + half), rel=1e-12
        )

    def test_scratch_memory_is_a_few_rows(self):
        # fresh float64 temporaries per step of a 4e6-value block peak
        # near 100 MB at this size
        data = _random_dataset(3, n=100_000)
        tracemalloc.start()
        try:
            stattests._simulate_null_statistics(data, 50, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    # 8 workers: more than the three blocks of the multi-block cases
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n, replications", ENGINE_CASES)
    def test_bit_identical_for_any_worker_count(self, use_cpus, cpus, n,
                                                replications):
        use_cpus(cpus)
        data = _random_dataset(n, n=n)
        got = stattests._simulate_null_statistics(data, replications, seed=11)
        want = _per_replicate_null(data, replications, 11)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(_bits(g), _bits(w))

    def test_worker_count_is_capped_at_the_blocks(self, forks, use_cpus,
                                                  no_children):
        use_cpus(8)
        data = _random_dataset(5, n=1000)
        stattests._simulate_null_statistics(data, 131, seed=1)  # one block
        assert forks == []
        stattests._simulate_null_statistics(data, 300, seed=1)  # three
        assert len(forks) == 2  # the calling process is the third worker
        assert no_children()

    def test_runs_in_this_process_while_another_thread_runs(self,
                                                            monkeypatch,
                                                            use_cpus):
        def no_fork():
            raise AssertionError("forked")

        use_cpus(8)
        monkeypatch.setattr(os, "fork", no_fork)
        data = _random_dataset(6, n=1000)
        parked = threading.Event()
        thread = threading.Thread(target=parked.wait)
        thread.start()
        try:
            got = stattests._simulate_null_statistics(data, 3000, seed=4)
        finally:
            parked.set()
            thread.join()
        want = _per_replicate_null(data, 3000, 4)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(_bits(g), _bits(w))

    @pytest.mark.parametrize("on_caller", [False, True],
                             ids=["worker", "caller"])
    def test_error_in_a_block_ends_every_worker(self, monkeypatch, tmp_path,
                                                on_caller, use_cpus,
                                                no_children):
        # 4 workers on 23 blocks: the error is raised in each child's first
        # block, or in the caller's once every child has started a block
        use_cpus(4)
        data = _random_dataset(7, n=1000)
        parent, log = os.getpid(), tmp_path / "pids"
        error = KeyboardInterrupt if on_caller else RuntimeError
        walk_extremes = stattests._walk_extremes

        def pids():
            return log.read_text().split()

        def failing(times, walk, bridge):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            if os.getpid() == parent:
                deadline = time.monotonic() + 30
                while (len(set(pids())) < 4
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                if on_caller:
                    raise error("block failed")
            elif on_caller:
                time.sleep(0.05)
            else:
                raise error("block failed")
            return walk_extremes(times, walk, bridge)

        monkeypatch.setattr(stattests, "_walk_extremes", failing)
        with pytest.raises(error, match="^block failed$") as caught:
            stattests._simulate_null_statistics(data, 3000, seed=1)
        assert type(caught.value) is error
        assert len(set(pids())) == 4
        if on_caller:
            # of 23 blocks, the children ran the few they held when killed
            assert len(pids()) < 20
        else:
            assert "in a worker process" in str(caught.value.__cause__)
        assert no_children()

    def test_scratch_is_one_block_of_buffers_per_worker(self, monkeypatch,
                                                        use_cpus,
                                                        no_children):
        # at this n a block is one row.  The buffers are allocated before
        # the fork, so on 4 workers this process holds one walk and one
        # bridge row, as each child does in its own copy, and the n
        # variance times
        use_cpus(4)
        n = 100_000
        data = _random_dataset(3, n=n)
        tracemalloc.start()
        try:
            stattests._simulate_null_statistics(data, 50, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # half a row of slack: a second pair of buffers would be 2 rows
        assert peak < (2 + 1.5) * 8 * n
        assert no_children()


# (what runs, at which n, and its workers under 64 CPUs and the real
# memory budget)
BUDGET_CASES = [
    ("engine", 100_000, 17),
    ("engine", BLOCK_VALUES + 1, 15),
    ("engine", 1_000_000, 6),
    ("study", 1000, 18),
    ("study", 100_000, 7),
    ("study", 506_811, 2),
    ("study", 506_812, 1),
    ("csv", None, 4),
]


@pytest.mark.parametrize("what, n, workers", BUDGET_CASES,
                         ids=[f"{what}-{n}-{workers}"
                              for what, n, workers in BUDGET_CASES])
def test_one_memory_budget_sets_the_workers(monkeypatch, tmp_path, forks,
                                            what, n, workers, no_children):
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 64)
    if what == "engine":
        data = _random_dataset(3, n=n)
        stattests._simulate_null_statistics(data, 20, seed=2)  # 20 blocks
    elif what == "study":
        # 40 blocks of the real size, each left as zeros
        monkeypatch.setattr(simulation, "_run_block",
                            lambda scenario, start, stop, pvalues: 0)
        simulation.run_null_study(
            [0.0], [n], seed=0,
            replications=40 * max(1, simulation._STUDY_BLOCK_VALUES // n))
    else:
        # 4 ranges of at least _RANGE_BYTES, patched to 4 KiB
        monkeypatch.setattr(dataio, "_RANGE_BYTES", 1 << 12)
        path = tmp_path / "d.csv"
        path.write_text("p,y\n" + "0.25,1\n" * 2600)
        dataio.read_dataset_csv(path)
    assert len(forks) == workers - 1
    assert no_children()


def _private_bytes():
    """This process's private memory, from ``/proc/self/smaps_rollup``."""
    with open("/proc/self/smaps_rollup") as rollup:
        return 1024 * sum(int(line.split()[1]) for line in rollup
                          if line.startswith(("Private_Clean:",
                                              "Private_Dirty:")))


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs /proc/self/smaps_rollup")
@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_engine_children_stay_inside_the_budget(monkeypatch, n, no_children):
    # each of the 3 children on 4 CPUs records its private memory after
    # every block it runs, into the slot of its fork
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 4)
    data = _random_dataset(4, n=n)
    parent, private = os.getpid(), _pool.shared(4, np.int64)
    slot, fork, walk_extremes = [0], os.fork, stattests._walk_extremes

    def numbered():
        slot[0] += 1
        return fork()

    def measured(times, walk, bridge):
        extremes = walk_extremes(times, walk, bridge)
        if os.getpid() != parent:
            private[slot[0]] = max(private[slot[0]], _private_bytes())
        else:  # wait, up to 30 s in all, until every child has run a block
            while (private[1:] == 0).any() and time.monotonic() < deadline:
                time.sleep(0.01)
        return extremes

    monkeypatch.setattr(os, "fork", numbered)
    monkeypatch.setattr(stattests, "_walk_extremes", measured)
    deadline = time.monotonic() + 30
    stattests._simulate_null_statistics(data, 12, seed=5)  # one-row blocks
    scratch = 2 * 8 * n  # one walk and one bridge row
    assert slot[0] == 3
    assert (private[1:] > 0).all()
    assert (private[1:] < _pool._WORKER_BYTES + scratch).all(), private
    assert no_children()
