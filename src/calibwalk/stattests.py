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


def _hl_df(groups: int, df_rule) -> int:
    """The degrees of freedom of ``groups`` Hosmer-Lemeshow groups under
    ``df_rule``; an unknown rule, or one that leaves none, raises."""
    if not isinstance(df_rule, str) or df_rule not in _DF_RULES:
        raise ValueError(f"unknown df_rule {df_rule!r}")
    df = groups - _DF_RULES[df_rule]
    if df < 1:
        raise ValueError(
            f"df_rule {df_rule!r} with {groups} groups leaves no degrees of "
            "freedom; use df_rule='g'"
        )
    return df


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
    df = _hl_df(groups, df_rule)

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
    """The logistic function of an array, as exp(min(x, 0)) / (1 +
    exp(-|x|)): 1/(1+e) where x >= 0 and e/(1+e) elsewhere, with
    e = exp(-|x|), computed in two buffers."""
    mean = np.minimum(x, 0.0)
    np.exp(mean, out=mean)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    mean /= e
    return mean


# numpy adds a contiguous run of n float64 values pairwise: a run of up to
# 128 values (numpy's PW_BLOCKSIZE) in eight interleaved partial sums, a
# longer one as the sum of its first n//2 values, rounded down to a multiple
# of 8, plus the sum of the rest.  The fit follows that split down to leaves
# of at most _LEAF_VALUES values, small enough that a leaf's terms are
# summed while they are still in L2.  On a 2-core Xeon (2 MiB of L2 a core),
# a fit at n = 1e6 ran fastest with leaves of 2^14 or 2^15 values, 75 ms,
# and about 25% slower with 2^12 or 2^17.
_PAIRWISE_BLOCK = 128
_LEAF_VALUES = 1 << 14


def _pairwise(leaf_sums, lo, hi):
    """The sums over columns lo:hi, split as numpy's pairwise sum splits
    them: a part of at most ``max(_LEAF_VALUES, _PAIRWISE_BLOCK)`` values
    is a leaf, summed by ``leaf_sums(lo, hi)``, and a longer part is the
    sum of its two halves.

    A leaf summed by ``np.add.reduce(..., axis=-1)`` holds 0.0 plus its
    pairwise sum, which can only turn -0.0 into 0.0.  A zero's sign never
    changes a sum it is added to unless that sum is zero too, and numpy's
    reduce over the whole row also adds its result to 0.0, so the sums
    have the bits of ``np.add.reduce`` over the whole row.
    """
    size = hi - lo
    if size <= max(_LEAF_VALUES, _PAIRWISE_BLOCK):
        return leaf_sums(lo, hi)
    half = lo + size // 2 - size // 2 % 8
    return _pairwise(leaf_sums, lo, half) + _pairwise(leaf_sums, half, hi)


def _fit_rows(predictions, outcomes) -> list:
    """One ``RecalibrationFit`` per row of (rows, n) C-contiguous blocks of
    predictions and binary outcomes.  ``fit_logistic_recalibration`` is
    the one-row case and describes the fit.

    Each row makes the float operations of a fit of that row alone, in
    the same order, so its fit has the same bits in any block.  Its sums
    follow numpy's pairwise split of the row (``_pairwise``), and its
    Newton step, step-halving and stopping tests are elementwise over the
    rows still fitting.  While other rows halve their steps, a row that
    has accepted a trial recomputes that same trial.  A row leaves the
    blocks when it stops, with its fit frozen; a row whose outcomes are
    all equal never starts.

    Only the log-odds x, ``flip = 1 - 2y`` and the means are row-long:
    each pass computes a leaf's terms in leaf-sized scratch and sums them
    where the recursion reaches the leaf, while they are still in cache.
    """
    y = outcomes
    rows, n = y.shape
    x = np.subtract(1.0, predictions)
    np.divide(predictions, x, out=x)
    np.log(x, out=x)
    flip = np.multiply(y, 2.0)
    np.subtract(1.0, flip, out=flip)
    mu = np.empty_like(x)
    width = min(n, max(_LEAF_VALUES, _PAIRWISE_BLOCK))
    scratch = np.empty(3 * rows * width)
    scratch_mask = np.empty(rows * width, dtype=bool)

    def leaf_terms(lo, hi):
        """Three (live rows, hi - lo) float terms of scratch."""
        size = 3 * live.size * (hi - lo)
        return scratch[:size].reshape(3, live.size, hi - lo)

    def fit_at(coef):
        """Each row's Bernoulli deviance and (score_b, score_a) at log-odds
        a + b x, (a, b) = ``coef``; writes expit of the log-odds to ``mu``.

        One exp pass serves both.  With e = exp(-|eta|), the deviance is
        2 sum(log1p(e) + max(eta, 0) - y eta) and the mean is 1/(1+e)
        where eta >= 0 and e/(1+e) elsewhere, the same bits as ``_expit``.
        For binary y, max(eta, 0) - y eta is exactly max(flip eta, 0), so
        every term is a sum of two non-negative parts and a saturated fit
        keeps its digits.  The score is sum((y - mu) x) and sum(y - mu).
        """
        a, b = coef[:, :, None]

        def leaf_sums(lo, hi):
            xs, mean = x[:, lo:hi], mu[:, lo:hi]
            terms = leaf_terms(lo, hi)
            eta, e, third = terms
            mask = scratch_mask[:eta.size].reshape(eta.shape)
            np.multiply(xs, b, out=eta)
            np.add(eta, a, out=eta)
            np.abs(eta, out=e)
            np.negative(e, out=e)
            np.exp(e, out=e)
            # e <= 1, so max(eta >= 0, e) is 1 where eta >= 0, else e
            np.greater_equal(eta, 0.0, out=mask)
            np.maximum(mask, e, out=third)
            np.add(e, 1.0, out=mean)
            np.divide(third, mean, out=mean)
            np.log1p(e, out=e)
            np.multiply(eta, flip[:, lo:hi], out=eta)
            np.maximum(eta, 0.0, out=eta)
            np.add(eta, e, out=eta)
            np.subtract(y[:, lo:hi], mean, out=third)
            np.multiply(third, xs, out=e)
            return np.add.reduce(terms, axis=-1)

        total = _pairwise(leaf_sums, 0, n)
        return 2.0 * total[0], total[1:]

    def hessian():
        """Each row's (h_bb, h_aa, h_ab) at the means ``mu``."""
        def leaf_sums(lo, hi):
            xs, mean = x[:, lo:hi], mu[:, lo:hi]
            terms = leaf_terms(lo, hi)
            h_bb, h_aa, h_ab = terms
            np.subtract(1.0, mean, out=h_aa)
            np.multiply(h_aa, mean, out=h_aa)
            np.multiply(h_aa, xs, out=h_ab)
            np.multiply(h_ab, xs, out=h_bb)
            return np.add.reduce(terms, axis=-1)

        return _pairwise(leaf_sums, 0, n)

    # the rows still fitting: their place in the block, (a, b), deviance
    # and score; every row starts at (a, b) = (0, 1), the null model
    live = np.arange(rows)
    # intercept, slope, deviance, converged and iterations of every row
    fits = np.zeros((5, rows))
    fits[1] = 1.0
    coef = fits[:2].copy()
    null_deviance, score = fit_at(coef)
    fits[2] = null_deviance
    deviance = null_deviance

    def stop(done, converged, iteration, *extra):
        """Record the fits of the rows where ``done`` and drop those rows,
        from the blocks and from each (..., rows) array of ``extra``."""
        nonlocal x, y, flip, mu, live, coef, deviance, score
        if not np.count_nonzero(done):
            return extra
        at = live[done]
        fits[:2, at] = coef[:, done]
        fits[2, at] = deviance[done]
        fits[3, at] = converged
        fits[4, at] = iteration
        keep = ~done
        live = live[keep]
        if not live.size:
            return extra
        x, y, flip, mu = x[keep], y[keep], flip[keep], mu[keep]
        coef, deviance, score = coef[:, keep], deviance[keep], score[:, keep]
        return [array[..., keep] for array in extra]

    # no finite maximizer: the likelihood climbs toward a boundary
    events = np.add.reduce(y, axis=-1)
    stop((events == 0.0) | (events == n), False, 0)
    for iteration in range(1, _MAX_IRLS_ITERATIONS + 1):
        if not live.size:
            break
        # mu holds the mean at (a, b), and score its (score_b, score_a)
        small = np.abs(score) < _SCORE_TOLERANCE
        stop(small[0] & small[1], True, iteration)
        if not live.size:
            break
        curvature = hessian()  # (h_bb, h_aa, h_ab)
        h_bb, h_aa, h_ab = curvature
        det = h_aa * h_bb - h_ab * h_ab
        # (step_a, step_b) = (h_bb score_a - h_ab score_b,
        #                     h_aa score_b - h_ab score_a) / det
        step = curvature[:2] * score[::-1] - h_ab * score
        step, det = stop(det <= 0.0, False, iteration, step, det)
        if not live.size:
            break
        step /= det
        bound = deviance + 1e-10
        scale = 1.0
        for _ in range(30):
            trial = coef + scale * step
            trial_dev, trial_score = fit_at(trial)
            held = trial_dev <= bound
            if held.all():
                break
            scale = np.where(held, scale, 0.5 * scale)
        # a deviance is never negative, so it is its own absolute value
        rel_change = (np.abs(deviance - trial_dev)
                      / np.maximum(deviance, 1.0))
        coef, deviance, score = trial, trial_dev, trial_score
        diverged = np.logical_or(*(np.abs(coef) > _DIVERGENCE_BOUND))
        (settled,) = stop(diverged, False, iteration,
                          rel_change < _DEVIANCE_TOLERANCE)
        stop(settled, True, iteration)
    stop(np.ones(live.size, dtype=bool), False, _MAX_IRLS_ITERATIONS)

    return [RecalibrationFit(a, b, dev, null, bool(converged)
                             # every observation fitted exactly:
                             # separated, boundary solution
                             and not dev < 1e-6, int(iterations))
            for a, b, dev, converged, iterations, null
            in zip(*fits.tolist(), null_deviance.tolist())]


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
    fit starts.  Each trial step makes one exp pass, which also yields the
    score at the trial.  The fit keeps three n-length buffers (log-odds,
    ``1 - 2y`` and the fitted means).  Each sum follows numpy's recursive
    pairwise split of the row down to leaves of at most ``_LEAF_VALUES``
    values, and each leaf's terms are computed and summed where the
    recursion reaches it, so each sum has the bits of one ``np.sum`` over
    the row.  ``_fit_rows`` fits a block of datasets at once, with the
    same bits.
    """
    return _fit_rows(data.predictions[None], data.outcomes[None])[0]


def weak_calibration_lr_test(data: CalibrationDataset) -> WeakCalibResult:
    """Likelihood-ratio test of intercept 0 and slope 1 jointly (2 df).

    The null model scores the predictions as-is; the alternative is the
    fitted recalibration model.  A non-converged fit yields no p-value.
    """
    return _weak_calibration(fit_logistic_recalibration(data))


def _weak_calibration(fit: RecalibrationFit) -> WeakCalibResult:
    """``weak_calibration_lr_test`` of the data ``fit`` was fitted to."""
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
