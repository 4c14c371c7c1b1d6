"""Acceptance gate: one test per criterion, reported with a PASS line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import calibwalk as cw
from calibwalk.distributions import (
    _kolmogorov_cdf_alternating,
    _kolmogorov_cdf_theta,
)
from calibwalk.simulation import SimulationScenario, generate_dataset
from calibwalk.stattests import _simulate_null_statistics, bb_test_from_process
from calibwalk.svgplot import cumulative_plot_map

PI_GRID_5 = [0.1, 0.3, 0.5, 0.7, 0.9]


def _ecdf_sup_deviation(pvalues):
    p = np.sort(np.asarray(pvalues))
    n = p.size
    upper = np.arange(1, n + 1) / n - p
    lower = p - np.arange(0, n) / n
    return max(float(upper.max()), float(lower.max()))


def _passed(cid, message):
    print(f"ACCEPTANCE {cid} PASS: {message}")


def test_c01_cdf_oracle_regression():
    """Published case-study statistics reproduce from the series CDFs."""
    assert 1 - cw.sup_abs_bm_cdf(1.2973) == pytest.approx(0.3889, abs=5e-4)
    assert 1 - cw.sup_abs_bm_cdf(2.8151) == pytest.approx(0.0098, abs=5e-4)
    assert 2 * cw.std_normal_cdf(-1.0091) == pytest.approx(0.3129, abs=5e-4)
    assert 2 * cw.std_normal_cdf(-0.6950) == pytest.approx(0.4871, abs=5e-4)
    assert 1 - cw.kolmogorov_cdf(1.0284) == pytest.approx(0.2407, abs=5e-4)
    assert 1 - cw.kolmogorov_cdf(3.3381) < 0.001
    fisher = -2 * (math.log(0.3129) + math.log(0.2407))
    assert cw.chi_square_sf(fisher, 4) == pytest.approx(0.2701, abs=1e-3)
    _passed("C1", "all seven reference statistics within tolerance")


def test_c02_dual_form_consistency():
    """The two series forms agree, and the conditional CDF nests them."""
    for a in np.linspace(0.3, 3.0, 1000):
        assert abs(_kolmogorov_cdf_theta(a)
                   - _kolmogorov_cdf_alternating(a)) < 1e-10
    for a in np.linspace(0.0, 5.0, 1001):
        assert abs(cw.conditional_sup_cdf(a, 0.0)
                   - cw.kolmogorov_cdf(a)) < 1e-12
    _passed("C2", "dual forms within 1e-10; zero-terminal conditional "
                  "within 1e-12")


def test_c03_exhaustive_small_instance_oracle():
    """All 32 outcome vectors at n=5 versus 1e6 Monte Carlo draws."""
    variances = [p * (1 - p) for p in PI_GRID_5]
    total = sum(variances)
    times = np.cumsum(variances) / total
    exact = {"s_star": [], "b_star": [], "s_n": []}
    for ys in itertools.product((0, 1), repeat=5):
        weight = 1.0
        for p, y in zip(PI_GRID_5, ys):
            weight *= p if y else (1.0 - p)
        walk = np.cumsum([y - p for p, y in zip(PI_GRID_5, ys)])
        walk = walk / math.sqrt(total)
        terminal = walk[-1]
        exact["s_star"].append((float(np.max(np.abs(walk))), weight))
        exact["b_star"].append(
            (float(np.max(np.abs(walk - times * terminal))), weight)
        )
        exact["s_n"].append((float(terminal), weight))

    replications = 1_000_000
    data = cw.build_dataset(PI_GRID_5, [0, 0, 0, 0, 0])
    samples = dict(zip(
        ("s_star", "b_star", "s_n"),
        _simulate_null_statistics(data, replications, seed=3),
    ))
    worst = 0.0
    for name, pairs in exact.items():
        sample = np.sort(samples[name])
        for value in sorted({v for v, _ in pairs}):
            cdf_exact = sum(w for v, w in pairs if v <= value + 1e-12)
            cdf_mc = np.searchsorted(sample, value + 1e-9, side="right") \
                / replications
            se = math.sqrt(max(cdf_exact * (1 - cdf_exact), 1e-12)
                           / replications)
            worst = max(worst, abs(cdf_mc - cdf_exact) / se)
    assert worst <= 3.0
    _passed("C3", f"worst support-point deviation {worst:.2f} binomial SEs")


def test_c04_null_uniformity_desk_scale():
    """Both walk tests hold their level and p-values look uniform."""
    summary = cw.run_null_study([-1.0], [1000], replications=2000, seed=1)[0]
    for name in ("bm", "bb"):
        assert summary.rejections[name] == pytest.approx(0.05, abs=0.015)
        assert _ecdf_sup_deviation(summary.pvalues[name]) <= 0.03
    _passed("C4", f"rejections bm={summary.rejections['bm']:.3f} "
                  f"bb={summary.rejections['bb']:.3f}; ECDF near identity")


def test_c05_conservatism_at_small_n():
    """At n=50 both tests stay at or below the nominal level."""
    summary = cw.run_null_study([-1.0], [50], replications=2000, seed=1)[0]
    for name in ("bm", "bb"):
        assert summary.rejections[name] <= 0.06
    _passed("C5", f"n=50 rejections bm={summary.rejections['bm']:.3f} "
                  f"bb={summary.rejections['bb']:.3f}")


A_GRID = [-0.25, -0.125, 0.0, 0.125, 0.25]
B_GRID = [0.5, 0.75, 1.0, 4.0 / 3.0, 2.0]


def _two_se(summary, first, second):
    se = summary.standard_errors
    return 2.0 * math.sqrt(se[first] ** 2 + se[second] ** 2)


def test_c06_power_ordering_desk_scale():
    """LR >= BB >= BM on the logit-linear grid; BB >= BM on logit-power."""
    linear = cw.run_power_study("logit_linear", A_GRID, B_GRID, [1000],
                                replications=500, seed=1)
    power = cw.run_power_study("logit_power", A_GRID, B_GRID, [1000],
                               replications=500, seed=1)
    for summary in linear:
        r = summary.rejections
        scenario = summary.scenario
        if scenario.b != 1.0:
            assert r["lr"] >= r["bb"] - _two_se(summary, "lr", "bb"), scenario
            assert r["bb"] >= r["bm"] - _two_se(summary, "bb", "bm"), scenario
        if scenario.a == 0.0 and scenario.b == 1.0:
            for name in ("lr", "hl", "bm", "bb"):
                assert r[name] == pytest.approx(0.05, abs=0.03)
    for summary in power:
        r = summary.rejections
        scenario = summary.scenario
        if scenario.b != 1.0:
            assert r["bb"] >= r["bm"] - _two_se(summary, "bb", "bm"), scenario
        if scenario.a == 0.0 and scenario.b == 1.0:
            for name in ("lr", "hl", "bm", "bb"):
                assert r[name] == pytest.approx(0.05, abs=0.03)
    _passed("C6", "orderings hold on both 5x5 grids at n=1000, "
                  "central cells near 5%")


def test_c07_component_independence():
    """Terminal-value and bridged-maximum p-values are uncorrelated."""
    scenario = SimulationScenario(family="null", n=1000, replications=5000,
                                  seed=11, beta0=-1.0)
    p_a = np.empty(scenario.replications)
    p_b = np.empty(scenario.replications)
    for r in range(scenario.replications):
        result = bb_test_from_process(cw.walk_statistics(
            cw.cumulative_process(generate_dataset(scenario, r))
        ))
        p_a[r], p_b[r] = result.p_a, result.p_b
    corr = float(np.corrcoef(p_a, p_b)[0, 1])
    assert abs(corr) < 0.05
    _passed("C7", f"|corr(p_A, p_B)| = {abs(corr):.4f} over 5000 replicates")


def test_c08_irls_correctness():
    """Parameter recovery, nonnegative LR statistic, and level accuracy."""
    scenario = SimulationScenario(family="logit_linear", n=100_000,
                                  replications=1, seed=21, a=0.25, b=2.0)
    data = generate_dataset(scenario, 0)
    fit = cw.fit_logistic_recalibration(data)
    assert fit.converged
    x = np.log(data.predictions / (1 - data.predictions))
    mu = 1 / (1 + np.exp(-(fit.intercept + fit.slope * x)))
    w = mu * (1 - mu)
    info = np.array([[w.sum(), (w * x).sum()],
                     [(w * x).sum(), (w * x * x).sum()]])
    ses = np.sqrt(np.diag(np.linalg.inv(info)))
    # the generating transform logit(pred) = 1/4 + 2 logit(risk) inverts to
    # intercept -1/8, slope 1/2
    assert abs(fit.intercept - (-0.125)) < 3 * ses[0]
    assert abs(fit.slope - 0.5) < 3 * ses[1]

    null_scenario = SimulationScenario(family="null", n=1000,
                                       replications=2000, seed=8, beta0=-1.0)
    rejections = 0
    for r in range(null_scenario.replications):
        result = cw.weak_calibration_lr_test(
            generate_dataset(null_scenario, r)
        )
        assert result.lr_statistic >= -1e-8
        if result.converged and result.p_value < 0.05:
            rejections += 1
    rate = rejections / null_scenario.replications
    assert rate == pytest.approx(0.05, abs=0.015)
    _passed("C8", f"recovery within 3 SEs; LR >= 0; null rejection {rate:.3f}")


def test_c09_mean_prediction_sanity():
    """Average generated risk matches the published values per intercept."""
    for beta0, target in ((-2.0, 0.155), (-1.0, 0.303), (0.0, 0.500)):
        scenario = SimulationScenario(family="null", n=1_000_000,
                                      replications=1, seed=5, beta0=beta0)
        data = generate_dataset(scenario, 0)
        assert float(data.predictions.mean()) == pytest.approx(
            target, abs=0.002
        )
    _passed("C9", "mean generated risk 0.155 / 0.303 / 0.500 within 0.002")


def _birthwt_path():
    candidate = os.environ.get("BIRTHWT_CSV")
    if candidate and Path(candidate).exists():
        return Path(candidate)
    local = Path(__file__).parent / "data" / "birthwt.csv"
    return local if local.exists() else None


@pytest.mark.skipif(_birthwt_path() is None,
                    reason="public low-birth-weight dataset not supplied "
                           "(set BIRTHWT_CSV or add tests/data/birthwt.csv "
                           "with columns low, age, lwt)")
def test_c10_low_birth_weight_cross_check():
    """Reference model on the public dataset reproduces the published p."""
    import csv

    with open(_birthwt_path(), newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 189
    age = np.array([float(r["age"]) for r in rows])
    lwt = np.array([float(r["lwt"]) for r in rows])
    low = np.array([float(r["low"]) for r in rows])
    predictions = 1 / (1 + np.exp(-(2.15 - 0.050 * age - 0.015 * lwt)))
    _, report = cw.analyze(cw.build_dataset(predictions, low), hl=False,
                           lr=False)
    result = report.bb
    assert result.p_unified == pytest.approx(0.8382, abs=1e-3)
    _passed("C10", f"unified p = {result.p_unified:.4f}")


def test_c11_structural_plot_suite():
    """Every renderer: well-formed, deterministic, round-trip accurate."""
    from xml.dom import minidom

    rng = np.random.default_rng(17)
    p = rng.uniform(0.05, 0.7, 150)
    y = (rng.random(150) < p).astype(float)
    data = cw.build_dataset(p, y)
    proc, report = cw.analyze(data, hl=False, lr=False)
    bm, bb = report.bm, report.bb
    documents = {
        "bm": cw.render_cumulative_plot(proc, "bm", bm),
        "bb": cw.render_cumulative_plot(proc, "bb", bb),
        "binned": cw.render_binned_calibration_plot(data, 10),
    }
    null_summaries = cw.run_null_study([-1.0], [40], replications=4, seed=2)
    power_summaries = cw.run_power_study("logit_linear", [0.0], [1.0], [60],
                                         replications=4, seed=2)
    documents.update(cw.render_study_figures(null_summaries))
    documents.update(cw.render_study_figures(power_summaries))

    for name, svg in documents.items():
        minidom.parseString(svg)

    assert documents["bm"] == cw.render_cumulative_plot(proc, "bm", bm)
    assert documents["binned"] == cw.render_binned_calibration_plot(data, 10)

    import re
    points = re.findall(r'<polyline[^>]*points="([^"]+)"', documents["bm"])
    vertices = [tuple(float(c) for c in pair.split(","))
                for pair in points[0].split()]
    assert len(vertices) == data.n + 1
    amap = cumulative_plot_map(proc, "bm")
    for (px, py), t, s in zip(vertices[1:], proc.times, proc.walk):
        ex, ey = amap.to_px(float(t), float(s))
        assert abs(px - ex) < 1e-6
        assert abs(py - ey) < 1e-6
        rx, ry = amap.to_px((ex - amap.x_offset) / amap.x_scale,
                            (ey - amap.y_offset) / amap.y_scale)
        assert abs(rx - ex) < 1e-6
        assert abs(ry - ey) < 1e-6
    _passed("C11", f"{len(documents)} documents well-formed, deterministic, "
                   "round-trip within 1e-6 px")


# ---------------------------------------------------------------------------
# paper-scale replications

def test_full_null_panels_paper_scale():
    """Full-size panels: 10,000 replications per cell.

    Rejections must land in the published [0.045, 0.055] band widened by
    the +-0.006 binomial allowance.  The p-value ECDFs stay near identity;
    the residual sup deviation (~0.02-0.025 at n=1000) is the intrinsic
    conservative finite-n bias of the asymptotic references.
    """
    summaries = cw.run_null_study([-2.0, -1.0, 0.0], [250, 1000],
                                  replications=10_000, seed=1)
    for summary in summaries:
        for name in ("bm", "bb"):
            assert 0.039 <= summary.rejections[name] <= 0.061
            if summary.scenario.n == 1000:
                assert _ecdf_sup_deviation(summary.pvalues[name]) <= 0.03


def test_full_small_n_conservatism_paper_scale():
    summaries = cw.run_null_study([-2.0, -1.0, 0.0], [50],
                                  replications=10_000, seed=1)
    for summary in summaries:
        for name in ("bm", "bb"):
            assert summary.rejections[name] <= 0.055
