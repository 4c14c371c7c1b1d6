"""Series CDFs against published values, dual forms, and path simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibwalk.distributions import (
    _clip_probability,
    _kolmogorov_cdf_alternating,
    _kolmogorov_cdf_theta,
    _kolmogorov_sf_and_log,
    _normal_two_sided_p_and_log,
    chi_square_sf,
    conditional_sup_cdf,
    critical_value,
    kolmogorov_cdf,
    kolmogorov_sf,
    std_normal_cdf,
    sup_abs_bm_cdf,
    sup_abs_bm_sf,
)


def barrier_survival_mc(a, b=None, paths=150_000, steps=400, seed=7):
    """Unbiased Monte Carlo estimate of P(sup |path| < a) with its SE.

    ``path`` is standard BM on [0, 1] when ``b`` is None, else BM
    conditioned on terminal value b (simulated as bridge + t*b).  Between
    grid points the path is a Brownian bridge, so weighting each surviving
    path by the product of exact interval non-crossing probabilities makes
    the estimator unbiased at any grid resolution.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / steps
    tgrid = np.arange(1, steps + 1) * dt
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < paths:
        m = min(5_000, paths - done)
        w = np.cumsum(rng.standard_normal((m, steps)) * math.sqrt(dt), axis=1)
        path = w if b is None else w - tgrid * w[:, -1][:, None] + tgrid * b
        inside = np.max(np.abs(path), axis=1) < a
        full = np.concatenate([np.zeros((m, 1)), path], axis=1)
        x0, x1 = full[:, :-1], full[:, 1:]
        up = np.exp(-2.0 * (a - x0) * (a - x1) / dt)
        down = np.exp(-2.0 * (a + x0) * (a + x1) / dt)
        log_survive = (
            np.log1p(-np.clip(up, 0.0, 1.0 - 1e-16))
            + np.log1p(-np.clip(down, 0.0, 1.0 - 1e-16))
        ).sum(axis=1)
        weights = np.where(inside, np.exp(log_survive), 0.0)
        total += float(weights.sum())
        total_sq += float((weights ** 2).sum())
        done += m
    mean = total / paths
    se = math.sqrt(max(total_sq / paths - mean * mean, 0.0) / paths)
    return mean, se


class TestSupAbsBM:
    def test_paper_values(self):
        assert 1.0 - sup_abs_bm_cdf(1.2973) == pytest.approx(0.3889, abs=5e-4)
        assert 1.0 - sup_abs_bm_cdf(2.8151) == pytest.approx(0.0098, abs=5e-4)

    def test_degenerate_and_limit(self):
        assert sup_abs_bm_cdf(0.0) == 0.0
        assert sup_abs_bm_cdf(100.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sup_abs_bm_cdf(-0.5)
        with pytest.raises(ValueError):
            sup_abs_bm_sf(-0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sup_abs_bm_sf(math.nan)
        with pytest.raises(ValueError):
            sup_abs_bm_cdf(math.nan)

    def test_survival_complements_cdf(self):
        for a in np.linspace(0.06, 6.0, 121):
            assert sup_abs_bm_sf(a) == pytest.approx(
                1.0 - sup_abs_bm_cdf(a), abs=1e-12
            )

    def test_monotone_and_in_range(self):
        grid = np.linspace(0.0, 5.0, 1000)
        values = [sup_abs_bm_cdf(a) for a in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b - a >= -1e-13 for a, b in zip(values, values[1:]))


class TestKolmogorov:
    def test_paper_values(self):
        assert kolmogorov_sf(1.0284) == pytest.approx(0.2407, abs=5e-4)
        assert kolmogorov_cdf(3.3381) > 0.999

    def test_degenerate(self):
        assert kolmogorov_cdf(0.0) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5])
    def test_dual_forms_agree(self, a):
        assert _kolmogorov_cdf_theta(a) == pytest.approx(
            _kolmogorov_cdf_alternating(a), abs=1e-10
        )

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for a in np.linspace(0.2, 4.0, 77):
            assert kolmogorov_sf(a) == pytest.approx(
                float(scipy_special.kolmogorov(a)), abs=1e-12
            )

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(math.nan)
        with pytest.raises(ValueError):
            kolmogorov_cdf(math.nan)

    def test_log_sf_extends_past_underflow(self):
        a = 30.0
        assert kolmogorov_sf(a) == 0.0
        assert _kolmogorov_sf_and_log(a) == pytest.approx(
            (0.0, math.log(2.0) - 2.0 * a * a)
        )

    def test_monotone_and_in_range(self):
        grid = np.linspace(0.0, 5.0, 1000)
        values = [kolmogorov_cdf(a) for a in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b - a >= -1e-13 for a, b in zip(values, values[1:]))


class TestConditionalSup:
    def test_reduces_to_kolmogorov_at_zero_terminal(self):
        for a in np.linspace(0.0, 5.0, 501):
            assert conditional_sup_cdf(a, 0.0) == pytest.approx(
                kolmogorov_cdf(a), abs=1e-12
            )

    def test_zero_when_terminal_unreachable(self):
        assert conditional_sup_cdf(0.5, 1.0) == 0.0
        assert conditional_sup_cdf(0.5, -1.0) == 0.0
        assert conditional_sup_cdf(1.0, 1.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            conditional_sup_cdf(-1.0, 0.0)

    def test_infinite_bound_is_certain(self):
        for b in (0.0, 2.5, -40.0):
            assert conditional_sup_cdf(math.inf, b) == 1.0
        # 2 a b and 2 a^2 both overflow here
        assert conditional_sup_cdf(1e200, 1e150) == 1.0

    def test_large_bound_keeps_its_digits(self):
        # a (a - b) = 10 at a = 1e8: the k = 1 term alone is the answer,
        # and the unfactored exponent 2 a b - 2 a^2 lost 1e-9 to rounding
        a = 1e8
        b = a - 1e-7
        assert conditional_sup_cdf(a, b) == pytest.approx(
            1.0 - math.exp(-2.0 * a * (a - b)), abs=1e-15
        )

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_non_finite_terminal_rejected(self, b):
        with pytest.raises(ValueError, match="b must be finite"):
            conditional_sup_cdf(1.0, b)

    def test_nan_probability_is_not_clipped(self):
        with pytest.raises(ValueError, match="NaN"):
            _clip_probability(math.nan)

    def test_against_conditioned_path_simulation(self):
        value = conditional_sup_cdf(1.5, 0.8)
        estimate, se = barrier_survival_mc(1.5, b=0.8, seed=7)
        assert abs(value - estimate) < 3.0 * se

    def test_symmetric_in_terminal_sign(self):
        for a, b in [(1.5, 0.8), (2.0, 0.3), (1.2, 1.0)]:
            assert conditional_sup_cdf(a, b) == pytest.approx(
                conditional_sup_cdf(a, -b), abs=1e-14
            )

    def test_in_range(self):
        for a in np.linspace(0.0, 4.0, 81):
            for b in np.linspace(-2.0, 2.0, 41):
                v = conditional_sup_cdf(a, b)
                assert 0.0 <= v <= 1.0


class TestStdNormal:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_paper_values(self):
        assert 2.0 * std_normal_cdf(-1.0091) == pytest.approx(0.3129, abs=5e-4)
        assert 2.0 * std_normal_cdf(-0.6950) == pytest.approx(0.4871, abs=5e-4)

    @pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 6.0])
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in np.linspace(-8.0, 8.0, 33):
            assert std_normal_cdf(x) == pytest.approx(
                float(scipy_stats.norm.cdf(x)), abs=1e-12
            )

    def test_log_two_sided_matches_direct(self):
        for x in (0.0, 0.5, 3.0, 10.0):
            assert _normal_two_sided_p_and_log(x)[1] == pytest.approx(
                math.log(2.0 * std_normal_cdf(-abs(x))), rel=1e-10
            )

    def test_log_two_sided_past_underflow(self):
        # erfc underflows near 38; the asymptotic branch must stay finite
        p, value = _normal_two_sided_p_and_log(60.0)
        assert p == 0.0
        assert math.isfinite(value)
        assert value == pytest.approx(-0.5 * 60.0 ** 2, rel=1e-2)


class TestChiSquare4:
    def test_at_origin(self):
        assert chi_square_sf(0.0, 4) == 1.0

    def test_paper_fisher_value(self):
        # 5.1726 when computed from unrounded components
        x = -2.0 * (math.log(0.3129) + math.log(0.2407))
        assert x == pytest.approx(5.1726, abs=1e-3)
        assert chi_square_sf(x, 4) == pytest.approx(0.2701, abs=1e-3)

    def test_limit(self):
        assert chi_square_sf(4000.0, 4) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 4)


class TestCriticalValue:
    @pytest.mark.parametrize("name", ["sup_abs_bm", "kolmogorov"])
    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_right_inverse(self, name, level):
        cdf = sup_abs_bm_cdf if name == "sup_abs_bm" else kolmogorov_cdf
        a = critical_value(name, level)
        assert cdf(a) == pytest.approx(level, abs=1e-8)

    def test_kolmogorov_95_matches_classical_value(self):
        assert critical_value("kolmogorov", 0.95) == pytest.approx(
            1.3581, abs=1e-4
        )

    def test_kolmogorov_95_against_path_simulation(self):
        a = critical_value("kolmogorov", 0.95)
        estimate, se = barrier_survival_mc(a, b=0.0, seed=11)
        assert abs(estimate - 0.95) < 3.0 * se

    def test_sup_abs_bm_95_against_path_simulation(self):
        a = critical_value("sup_abs_bm", 0.95)
        estimate, se = barrier_survival_mc(a, b=None, seed=13)
        assert abs(estimate - 0.95) < 3.0 * se

    def test_small_level_gives_small_value(self):
        assert critical_value("kolmogorov", 1e-6) < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_value("kolmogorov", 0.0)
        with pytest.raises(ValueError):
            critical_value("kolmogorov", 1.0)
        with pytest.raises(ValueError):
            critical_value("gamma", 0.5)


@given(st.floats(0.0, 50.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_cdfs_always_probabilities(a):
    assert 0.0 <= sup_abs_bm_cdf(a) <= 1.0
    assert 0.0 <= kolmogorov_cdf(a) <= 1.0
    assert 0.0 <= sup_abs_bm_sf(a) <= 1.0
    assert 0.0 <= kolmogorov_sf(a) <= 1.0
