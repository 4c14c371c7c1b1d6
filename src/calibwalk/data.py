"""Validated calibration data and its cumulative prediction-error process.

The central object is the random walk built from predictions sorted
ascending: time advances by the Bernoulli variance of each observation and
the walk jumps by the standardized prediction error, so that under perfect
calibration the path behaves like standard Brownian motion on [0, 1].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as a Python int, so that numpy integers do not reach a
    JSON file; a bool, a non-integer or a value below ``minimum`` raises a
    ValueError that names ``name``."""
    try:
        integer = operator.index(value)
    except TypeError:
        integer = None
    if integer is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if integer < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return integer


def _accumulate(values: np.ndarray) -> np.ndarray:
    # Running sums along each row in 80-bit extended precision: cumulative
    # rounding stays ~n * 2^-64, inside a 1e-12 relative budget for n up
    # to 1e7.
    return np.cumsum(values, axis=-1, dtype=np.longdouble)


@dataclass(frozen=True)
class CalibrationDataset:
    """Co-sorted (prediction, outcome) pairs, predictions strictly in (0, 1)."""

    predictions: np.ndarray
    outcomes: np.ndarray
    tie_flag: bool

    @property
    def n(self) -> int:
        return self.predictions.size

    @property
    def event_count(self) -> int:
        return int(self.outcomes.sum())


@dataclass(frozen=True)
class CumulativeProcess:
    """The standardized cumulative-error walk of a dataset.

    ``times[i]`` is the variance-proportional clock in [0, 1] (last entry
    exactly 1) and ``walk[i]`` the standardized partial sum of prediction
    errors.  The origin (0, 0) is implicit and not stored.  On the raw
    scale, the partial sums divided by n, only two numbers are kept:
    ``c_star``, their largest absolute value, and ``c_n``, the last one
    (the mean prediction error).
    """

    total_variance: float
    times: np.ndarray
    walk: np.ndarray
    c_star: float
    c_n: float
    source: CalibrationDataset

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class WalkLocation:
    """Where a maximum is attained: 1-based index, clock time, prediction."""

    index: int
    time: float
    prediction: float


@dataclass(frozen=True)
class WalkStatistics:
    c_star: float
    s_star: float
    s_n: float
    c_n: float
    b_star: float
    argmax_bm: WalkLocation
    argmax_bb: WalkLocation


def build_dataset(raw_predictions, raw_outcomes, clamp_epsilon=None) -> CalibrationDataset:
    """Validate and co-sort predictions and binary outcomes.

    Without tied predictions the ascending order is unique.  Tied
    predictions keep their input order (the walk statistics may depend on
    that order; ``tie_flag`` reports it).
    ``clamp_epsilon`` clips predictions into [eps, 1-eps] before validation
    for pipelines that emit saturated probabilities.
    """
    predictions = np.asarray(raw_predictions, dtype=np.float64)
    outcomes = np.asarray(raw_outcomes, dtype=np.float64)
    if predictions.ndim != 1 or outcomes.ndim != 1:
        raise ValueError("predictions and outcomes must be one-dimensional")
    if predictions.size != outcomes.size:
        raise ValueError(
            f"length mismatch: {predictions.size} predictions vs "
            f"{outcomes.size} outcomes"
        )
    if predictions.size == 0:
        raise ValueError("empty input: at least one observation is required")
    if clamp_epsilon is not None:
        if not 0.0 < clamp_epsilon < 0.5:
            raise ValueError("clamp_epsilon must be inside (0, 0.5)")
        predictions = np.clip(predictions, clamp_epsilon, 1.0 - clamp_epsilon)

    predictions, outcomes, tie_flags = _sort_rows(predictions[None],
                                                  outcomes[None])
    return CalibrationDataset(predictions[0], outcomes[0], bool(tie_flags[0]))


def _sort_rows(predictions: np.ndarray, outcomes: np.ndarray):
    """Validate (rows, n) predictions and outcomes and co-sort each row.

    ``build_dataset`` is the one-row case; simulation studies pass blocks
    of replicates.  Each row is sorted ascending by prediction.  A row
    without tied predictions has only one such order; a row with ties
    keeps its tied pairs in input order.  Returns the sorted blocks,
    read-only, and each row's tie flag.  A ``-0.0`` outcome comes out as
    ``0.0``.  An invalid value raises with its position within its row.
    """
    bad = ~((predictions > 0.0) & (predictions < 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"prediction outside (0, 1) at position {j}: "
            f"{predictions[i, j]!r} "
            "(pass clamp_epsilon to clip saturated predictions)"
        )
    not_binary = ~((outcomes == 0.0) | (outcomes == 1.0))
    if not_binary.any():
        i, j = np.argwhere(not_binary)[0]
        raise ValueError(
            f"outcome not binary at position {j}: {outcomes[i, j]!r}")

    # Predictions in (0, 1) are positive doubles, whose int64 bit patterns
    # sort in the same order and have bits 62 and 63 clear, so a prediction
    # and its outcome pack into one key and one integer sort co-sorts them.
    keys = predictions.view(np.int64) << 1
    keys |= outcomes == 1.0
    keys.sort(axis=1)
    sorted_predictions = (keys >> 1).view(np.float64)
    keys &= 1
    sorted_outcomes = keys.astype(np.float64)
    del keys
    tie_flags = np.any(np.diff(sorted_predictions, axis=1) == 0.0, axis=1)

    # A tied row's packed order puts its tied outcomes in 0, 1 order; a
    # stable argsort keeps them in input order instead.  Gather from the
    # flattened block, each row's order offset to its start, and read the
    # outcomes as the keys did, so -0.0 comes out as 0.0 here too.
    tied = np.flatnonzero(tie_flags)
    if tied.size:
        order = np.argsort(predictions[tied], axis=1, kind="stable")
        order += tied[:, None] * predictions.shape[1]
        sorted_predictions[tied] = predictions.reshape(-1)[order]
        sorted_outcomes[tied] = outcomes.reshape(-1)[order] == 1.0
    return (_readonly(sorted_predictions), _readonly(sorted_outcomes),
            tie_flags)


def cumulative_process(data: CalibrationDataset) -> CumulativeProcess:
    """Construct the standardized cumulative-error random walk.

    With predictions p and outcomes y sorted ascending by p:

    * times[i] = sum_{j<=i} p_j (1 - p_j) / T,  T = sum p (1 - p)
    * walk[i]  = sum_{j<=i} (y_j - p_j) / sqrt(T)
    * c_star   = max_i |sum_{j<=i} (y_j - p_j)| / n
    * c_n      = sum_j (y_j - p_j) / n

    Dividing by n and rounding to float64 are monotone, so ``c_star`` is
    the largest of the rounded |partial sums / n|, bit for bit.
    """
    total_variance, times, walk, errors = _walk_rows(
        data.predictions[None], data.outcomes[None])
    return CumulativeProcess(
        total_variance=float(total_variance[0]),
        times=_readonly(times[0]),
        walk=_readonly(walk[0]),
        c_star=float(max(errors.max(), -errors.min()) / data.n),
        c_n=float(errors[0, -1] / data.n),
        source=data,
    )


def _walk_rows(predictions: np.ndarray, outcomes: np.ndarray):
    """Total variances, times and walks of (rows, n) sorted blocks, and
    their running sums of prediction errors in long double.

    ``cumulative_process`` is the one-row case.
    """
    variances = predictions * (1.0 - predictions)
    cum_var = _accumulate(variances)
    total_variance = cum_var[:, -1].astype(np.float64)
    times = np.asarray(cum_var / cum_var[:, -1:], dtype=np.float64)

    errors = _accumulate(outcomes - predictions)
    scale = np.sqrt(total_variance.astype(np.longdouble))[:, None]
    walk = np.asarray(errors / scale, dtype=np.float64)
    return total_variance, times, walk, errors


def walk_statistics(proc: CumulativeProcess) -> WalkStatistics:
    """Summary statistics of the walk and of its bridged transform.

    The bridged walk ``walk - times * walk[-1]`` ends at exactly 0 because
    the final time is 1; its maximum location therefore falls strictly
    inside the path for any non-degenerate walk.  Argmax ties resolve to
    the smallest index.
    """
    extremes = _walk_extremes(proc.times[None], proc.walk[None].copy(),
                              np.empty((1, proc.n)))
    i_bm, s_star, s_n, i_bb, b_star = (column.item() for column in extremes)

    def location(i):
        return WalkLocation(i + 1, proc.times[i].item(),
                            proc.source.predictions[i].item())

    return WalkStatistics(proc.c_star, s_star, s_n, proc.c_n, b_star,
                          location(i_bm), location(i_bb))


def _walk_extremes(times, walk, bridge):
    """Per row of a (rows, n) block: the argmax and max of |walk|, the
    terminal value, and the argmax and max of |walk - times * terminal|.

    ``times`` is (rows, n), or one (n,) row shared by every row.  Argmax
    ties go to the smallest index; an all-zero row has maximum +0.0.
    ``walk`` and the scratch ``bridge`` of its shape are overwritten with
    |walk| and |bridged walk|.
    """
    s_n = walk[:, -1].copy()
    np.multiply(times, s_n[:, None], out=bridge)
    np.subtract(walk, bridge, out=bridge)
    np.abs(bridge, out=bridge)
    np.abs(walk, out=walk)
    rows = np.arange(walk.shape[0])
    i_bm, i_bb = walk.argmax(axis=1), bridge.argmax(axis=1)
    return i_bm, walk[rows, i_bm], s_n, i_bb, bridge[rows, i_bb]
