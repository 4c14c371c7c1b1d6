"""Calibration tests on the cumulative-error walk, plus classical comparators.

Two walk-based tests: the maximum-absolute-walk test with the sup-|BM|
reference, and the bridge test that splits the null into a mean-calibration
component (terminal value, normal reference) and a shape component (bridged
maximum, Kolmogorov reference), combined by Fisher's method.  Comparators:
Hosmer-Lemeshow on rank deciles and the likelihood-ratio test of the
logistic recalibration model.  Both walk tests also have a
simulation-based variant that replaces the asymptotic reference by a
resampled null.  The walk tests read the statistics of one walk
(``data.walk_statistics``); ``dataio.analyze`` assembles them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._pool import run_forked, shared
from .data import (CalibrationDataset, WalkLocation, WalkStatistics,
                   _integer, _walk_extremes)
from . import distributions as dist


@dataclass(frozen=True)
class BMTestResult:
    c_star: float
    s_star: float
    location: WalkLocation
    p_value: float


@dataclass(frozen=True)
class BBTestResult:
    c_n: float
    s_n: float
    p_a: float
    b_star: float
    p_b: float
    location_bridge: WalkLocation
    p_unified: float


@dataclass(frozen=True)
class HLGroup:
    size: int
    observed: float
    expected: float
    mean_prediction: float


@dataclass(frozen=True)
class HLTestResult:
    statistic: float
    groups: int
    df: int
    p_value: float
    group_table: tuple


@dataclass(frozen=True)
class RecalibrationFit:
    intercept: float
    slope: float
    deviance: float
    null_deviance: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class WeakCalibResult:
    intercept: float
    slope: float
    lr_statistic: float
    converged: bool
    iterations: int
    p_value: Optional[float]


@dataclass(frozen=True)
class MonteCarloResult:
    replications: int
    seed: int
    bm_p_value: float
    bb_p_value: float


def bm_test_from_process(stats: WalkStatistics) -> BMTestResult:
    """Test of calibration via the maximum |walk| against sup-|BM|."""
    return BMTestResult(
        c_star=stats.c_star,
        s_star=stats.s_star,
        location=stats.argmax_bm,
        p_value=dist.sup_abs_bm_sf(stats.s_star),
    )


def bb_test_from_process(stats: WalkStatistics) -> BBTestResult:
    """Bridge test: mean-calibration and bridged-maximum components combined.

    The terminal walk value gets a two-sided normal p-value, the maximum of
    the bridged walk a Kolmogorov p-value; the two are asymptotically
    independent and are pooled by Fisher's method (chi-square, 4 df).
    """
    p_a, p_b, p_unified = _bb_p_values(stats.s_n, stats.b_star)
    return BBTestResult(stats.c_n, stats.s_n, p_a, stats.b_star, p_b,
                        stats.argmax_bb, p_unified)


def _bb_p_values(s_n: float, b_star: float):
    """The bridge test's terminal-value, bridged-maximum and unified
    p-values of terminal value ``s_n`` and bridged maximum ``b_star``."""
    p_a, log_p_a = dist._normal_two_sided_p_and_log(s_n)
    p_b, log_p_b = dist._kolmogorov_sf_and_log(b_star)
    # Fisher combination in log space so underflowing components still
    # produce a well-defined unified p-value.
    fisher = -2.0 * (log_p_a + log_p_b)
    return p_a, p_b, dist.chi_square_sf(max(fisher, 0.0), 4)


# ---------------------------------------------------------------------------
# Hosmer-Lemeshow

def _rank_group_bounds(n, groups):
    # equal-count split by rank; remainder spreads to the later groups and
    # rank boundaries put tied predictions in the lower group first
    return [i * n // groups for i in range(groups + 1)]


def _rank_groups(data: CalibrationDataset, groups: int) -> tuple:
    """One ``HLGroup`` row per rank group, lowest predictions first."""
    sizes, observed, expected = _rank_group_sums(
        data.predictions[None], data.outcomes[None], groups)
    return tuple(HLGroup(size, o, e, e / size) for size, o, e in
                 zip(sizes, observed[0].tolist(), expected[0].tolist()))


def _rank_group_sums(predictions, outcomes, groups: int):
    """Group sizes, and observed and expected event counts of the rank
    groups of each row of (rows, n) sorted blocks, as (rows, groups)
    arrays.  ``_rank_groups`` is the one-row case.

    Each group is one row-wise ``sum`` call over its slice, which adds in
    the same order as the one-dimensional ``sum`` of a single row.
    """
    bounds = _rank_group_bounds(predictions.shape[1], groups)
    observed = np.empty((predictions.shape[0], groups))
    expected = np.empty_like(observed)
    for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        observed[:, g] = outcomes[:, lo:hi].sum(axis=1)
        expected[:, g] = predictions[:, lo:hi].sum(axis=1)
    return np.diff(bounds).tolist(), observed, expected


def _hl_statistic(groups) -> float:
    """The Hosmer-Lemeshow chi-square of (size, observed, expected) group
    rows; a group with zero binomial variance raises a ValueError."""
    statistic = 0.0
    for g, (size, observed, expected) in enumerate(groups):
        variance = expected * (1.0 - expected / size)
        if variance <= 0.0:
            raise ValueError(f"degenerate group {g}: zero binomial variance")
        statistic += (observed - expected) ** 2 / variance
    return statistic


# the degrees of freedom each Hosmer-Lemeshow df_rule takes off the groups
_DF_RULES = {"g_minus_2": 2, "g": 0}


def _df_lost(df_rule) -> int:
    if not isinstance(df_rule, str) or df_rule not in _DF_RULES:
        raise ValueError(f"unknown df_rule {df_rule!r}")
    return _DF_RULES[df_rule]


def _hl_groups(groups) -> int:
    """``groups`` as an int; fewer than 2 Hosmer-Lemeshow groups raise."""
    groups = _integer("groups", groups)
    if groups < 2:
        raise ValueError(f"need at least 2 groups, got {groups}")
    return groups


def hosmer_lemeshow_test(data: CalibrationDataset, groups: int = 10,
                         df_rule: str = "g_minus_2") -> HLTestResult:
    """Hosmer-Lemeshow chi-square test on rank-quantile groups.

    ``df_rule`` is ``"g_minus_2"`` (development-data convention, the
    default) or ``"g"`` (appropriate when the predictions were not fitted
    to the evaluated data).
    """
    groups = _hl_groups(groups)
    if data.n < groups:
        raise ValueError(f"n={data.n} is smaller than groups={groups}")
    df = groups - _df_lost(df_rule)
    if df < 1:
        raise ValueError(
            f"df_rule {df_rule!r} with {groups} groups leaves no degrees of "
            "freedom; use df_rule='g'"
        )

    table = _rank_groups(data, groups)
    statistic = _hl_statistic(
        (row.size, row.observed, row.expected) for row in table)
    return HLTestResult(
        statistic=statistic,
        groups=groups,
        df=df,
        p_value=dist.chi_square_sf(statistic, df),
        group_table=table,
    )


# ---------------------------------------------------------------------------
# logistic recalibration (IRLS) and the weak-calibration LR test

_DIVERGENCE_BOUND = 50.0
_MAX_IRLS_ITERATIONS = 50
_SCORE_TOLERANCE = 1e-8
_DEVIANCE_TOLERANCE = 1e-12


def _expit(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _deviance_and_mean(eta, flip, mu, e, mask):
    """Bernoulli deviance at log-odds ``eta``; writes ``expit(eta)`` to ``mu``.

    One exp pass serves both.  With e = exp(-|eta|), the deviance is
    2 sum(log1p(e) + max(eta, 0) - y eta) and the mean is 1/(1+e) where
    eta >= 0 and e/(1+e) elsewhere, the same bits as ``_expit``.  For
    binary y, max(eta, 0) - y eta is exactly max(flip eta, 0) with
    ``flip = 1 - 2y``, so every term is a sum of two non-negative parts
    and a saturated fit keeps its digits.  ``eta`` and ``e`` are
    overwritten; ``mask`` is scratch.
    """
    np.abs(eta, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=mu)
    np.less(eta, 0.0, out=mask)
    np.divide(e, mu, out=mu, where=mask)
    np.logical_not(mask, out=mask)
    np.divide(1.0, mu, out=mu, where=mask)
    np.log1p(e, out=e)
    np.multiply(eta, flip, out=eta)
    np.maximum(eta, 0.0, out=eta)
    np.add(eta, e, out=eta)
    return 2.0 * float(eta.sum())


def fit_logistic_recalibration(data: CalibrationDataset) -> RecalibrationFit:
    """Maximum-likelihood fit of outcome on log-odds of the prediction.

    Fits ``logit E(Y) = a + b * logit(p)`` by iteratively reweighted least
    squares with step-halving whenever a Newton step increases the
    deviance.  Separation (all outcomes equal, coefficients diverging past
    50, or the deviance collapsing to zero) is reported as
    non-convergence, never raised.

    Deviances are computed in softplus form, 2 sum(log(1 + exp(eta)) -
    y eta) at log-odds eta, with no clipping of the fitted means, so they
    keep their digits where |eta| is large.  ``null_deviance`` is the
    deviance of the predictions as they stand (a = 0, b = 1), where the
    fit starts.  Each trial step makes one exp pass, and all work runs in
    n-length buffers allocated once per fit.
    """
    y = data.outcomes
    n = data.n
    x = np.log(data.predictions / (1.0 - data.predictions))
    flip = 1.0 - 2.0 * y
    # three rows, so that one reduce call sums several of them
    work = np.empty((3, n))
    eta, e, mu = work
    mask = np.empty(n, dtype=bool)
    a, b = 0.0, 1.0
    np.copyto(eta, x)
    deviance = null_deviance = _deviance_and_mean(eta, flip, mu, e, mask)
    events = float(y.sum())
    if events == 0.0 or events == float(n):
        # no finite maximizer: the likelihood climbs toward a boundary
        return RecalibrationFit(a, b, deviance, null_deviance, False, 0)
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_IRLS_ITERATIONS + 1):
        # mu holds the mean at (a, b); eta and e are free until the trials
        np.subtract(y, mu, out=e)
        np.multiply(e, x, out=eta)
        score_b, score_a = np.add.reduce(work[:2], axis=1).tolist()
        if max(abs(score_a), abs(score_b)) < _SCORE_TOLERANCE:
            converged = True
            break
        np.subtract(1.0, mu, out=e)
        np.multiply(e, mu, out=e)
        np.multiply(e, x, out=mu)
        np.multiply(mu, x, out=eta)
        h_bb, h_aa, h_ab = np.add.reduce(work, axis=1).tolist()
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0.0:
            break
        step_a = (h_bb * score_a - h_ab * score_b) / det
        step_b = (h_aa * score_b - h_ab * score_a) / det
        scale = 1.0
        for _ in range(30):
            trial_a, trial_b = a + scale * step_a, b + scale * step_b
            np.multiply(x, trial_b, out=eta)
            np.add(eta, trial_a, out=eta)
            trial_dev = _deviance_and_mean(eta, flip, mu, e, mask)
            if trial_dev <= deviance + 1e-10:
                break
            scale *= 0.5
        rel_change = abs(deviance - trial_dev) / max(abs(deviance), 1.0)
        a, b, deviance = trial_a, trial_b, trial_dev
        if abs(a) > _DIVERGENCE_BOUND or abs(b) > _DIVERGENCE_BOUND:
            break
        if rel_change < _DEVIANCE_TOLERANCE:
            converged = True
            break

    if deviance < 1e-6:
        # every observation fitted exactly: separated, boundary solution
        converged = False
    return RecalibrationFit(a, b, deviance, null_deviance, converged,
                            iterations)


def weak_calibration_lr_test(data: CalibrationDataset) -> WeakCalibResult:
    """Likelihood-ratio test of intercept 0 and slope 1 jointly (2 df).

    The null model scores the predictions as-is; the alternative is the
    fitted recalibration model.  A non-converged fit yields no p-value.
    """
    fit = fit_logistic_recalibration(data)
    lr = fit.null_deviance - fit.deviance
    p_value = dist.chi_square_sf(max(lr, 0.0), 2) if fit.converged else None
    return WeakCalibResult(
        intercept=fit.intercept,
        slope=fit.slope,
        lr_statistic=lr,
        p_value=p_value,
        converged=fit.converged,
        iterations=fit.iterations,
    )


# ---------------------------------------------------------------------------
# simulation-based variants

# Values per Monte Carlo block.  On a 2-core Xeon, blocks of 2^15 to 2^18
# values ran fastest at n = 1e3 to 1e6, and blocks of 2^22 or more up to
# 1.8x slower.
_BLOCK_VALUES = 1 << 17


def _simulate_null_statistics(data: CalibrationDataset, replications: int,
                              seed: int):
    """Null samples of (max |walk|, max |bridged walk|, terminal value).

    Outcomes are redrawn as independent Bernoulli(p_i); the float64 walk
    arithmetic here is the Monte Carlo engine, deliberately independent of
    the extended-precision path used for observed data; its extremes come
    from ``data._walk_extremes``, as the observed walk's and the study
    blocks' do.  Replicates run in blocks of about 2^17 values on
    ``run_forked``'s workers, the calling process and processes forked from
    it, each claiming the next block, or above 1024 blocks the next run of
    blocks, as it finishes one.  A block starts the generator at
    ``PCG64(seed)`` advanced by one 64-bit step per value before it, and
    fills its rows in row-major order, so replicate r sees the same uniforms
    as one ``default_rng(seed)`` stream whatever the block size or the
    number of workers.  The generator and one block of buffers are allocated
    before the fork and each worker updates its own copy in place: they are
    its scratch for ``run_forked``'s memory budget, which caps the workers
    at 17 at n = 1e5, 6 at n = 1e6 and one above n = 3801088.
    """
    p = data.predictions
    n = data.n
    variances = p * (1.0 - p)
    total_variance = variances.sum()
    times = np.cumsum(variances) / total_variance
    del variances
    sqrt_t = math.sqrt(total_variance)

    s_star, b_star, s_n = shared((3, replications))
    block = max(1, min(replications, _BLOCK_VALUES // n))
    starts = range(0, replications, block)
    origin = np.random.PCG64(seed).state
    rng = np.random.default_rng(seed)
    walk, bridge = np.empty((block, n)), np.empty((block, n))

    def run_block(index):
        start = starts[index]
        m = min(block, replications - start)
        rows = slice(start, start + m)
        w = walk[:m]
        rng.bit_generator.state = origin
        rng.bit_generator.advance(start * n)
        rng.random(out=w)
        np.less(w, p, out=w, casting="unsafe")
        np.subtract(w, p, out=w)
        np.cumsum(w, axis=1, out=w)
        np.divide(w, sqrt_t, out=w)
        _, s_star[rows], s_n[rows], _, b_star[rows] = _walk_extremes(
            times, w, bridge[:m])

    run_forked(run_block, len(starts), walk.nbytes + bridge.nbytes)
    return s_star, b_star, s_n


def monte_carlo_test(data: CalibrationDataset, replications: int, seed: int,
                     stats: WalkStatistics) -> MonteCarloResult:
    """Simulation-based BM and BB p-values from one resampled null.

    The null redraws the outcomes from the predictions.  The BM p-value
    compares the maximum |walk|; the BB p-value is Fisher's combination of
    the empirical two-sided terminal-value p and the empirical
    bridged-maximum p.  Both read the same null walks and use the add-one
    estimator, so neither is ever exactly zero.  The BM p-value is
    finite-sample valid.  The BB p-value is not: Fisher's chi-square(4)
    reference assumes two independent uniform p-values, and at small n
    the two empirical ones are discrete and dependent.  ``stats`` are the
    observed walk statistics of ``data``.
    """
    replications = _integer("replications", replications, 1)
    seed = _integer("seed", seed, 0)
    s_star, b_star, s_n = _simulate_null_statistics(data, replications, seed)

    def add_one(exceeds):
        return (1 + int(np.count_nonzero(exceeds))) / (replications + 1)

    p_a = add_one(np.abs(s_n) >= abs(stats.s_n))
    p_b = add_one(b_star >= stats.b_star)
    fisher = -2.0 * (math.log(p_a) + math.log(p_b))
    return MonteCarloResult(
        replications=replications,
        seed=seed,
        bm_p_value=add_one(s_star >= stats.s_star),
        bb_p_value=dist.chi_square_sf(fisher, 4),
    )
