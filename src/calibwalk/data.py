"""Validated calibration data and its cumulative prediction-error process.

The central object is the random walk built from predictions sorted
ascending: time advances by the Bernoulli variance of each observation and
the walk jumps by the standardized prediction error, so that under perfect
calibration the path behaves like standard Brownian motion on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _accumulate(values: np.ndarray) -> np.ndarray:
    # Running sums in 80-bit extended precision: cumulative rounding stays
    # ~n * 2^-64, inside a 1e-12 relative budget for n up to 1e7.
    return np.cumsum(values, dtype=np.longdouble)


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
    exactly 1), ``walk[i]`` the standardized partial sum of prediction
    errors, ``raw_sums[i]`` the same partial sum scaled by 1/n instead.
    The origin (0, 0) is implicit and not stored.
    """

    total_variance: float
    times: np.ndarray
    walk: np.ndarray
    raw_sums: np.ndarray
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

    The sort is stable, so tied predictions keep their input order (the
    walk statistics may depend on that order; ``tie_flag`` reports it).
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

    bad = ~((predictions > 0.0) & (predictions < 1.0))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"prediction outside (0, 1) at position {i}: {predictions[i]!r} "
            "(pass clamp_epsilon to clip saturated predictions)"
        )
    not_binary = ~((outcomes == 0.0) | (outcomes == 1.0))
    if not_binary.any():
        i = int(np.flatnonzero(not_binary)[0])
        raise ValueError(f"outcome not binary at position {i}: {outcomes[i]!r}")

    order = np.argsort(predictions, kind="stable")
    predictions = predictions[order]
    outcomes = outcomes[order]
    tie_flag = bool(np.any(np.diff(predictions) == 0.0))
    return CalibrationDataset(
        predictions=_readonly(predictions),
        outcomes=_readonly(outcomes),
        tie_flag=tie_flag,
    )


def cumulative_process(data: CalibrationDataset) -> CumulativeProcess:
    """Construct the standardized cumulative-error random walk.

    With predictions p and outcomes y sorted ascending by p:

    * raw_sums[i] = (1/n) * sum_{j<=i} (y_j - p_j)
    * times[i]    = sum_{j<=i} p_j (1 - p_j) / T,  T = sum p (1 - p)
    * walk[i]     = sum_{j<=i} (y_j - p_j) / sqrt(T)
    """
    p = data.predictions
    variances = p * (1.0 - p)
    cum_var = _accumulate(variances)
    total_variance = float(cum_var[-1])
    times = np.asarray(cum_var / cum_var[-1], dtype=np.float64)

    errors = _accumulate(data.outcomes - p)
    raw_sums = np.asarray(errors / data.n, dtype=np.float64)
    walk = np.asarray(errors / np.sqrt(np.longdouble(total_variance)),
                      dtype=np.float64)
    return CumulativeProcess(
        total_variance=total_variance,
        times=_readonly(times),
        walk=_readonly(walk),
        raw_sums=_readonly(raw_sums),
        source=data,
    )


def walk_statistics(proc: CumulativeProcess) -> WalkStatistics:
    """Summary statistics of the walk and of its bridged transform.

    The bridged walk ``walk - times * walk[-1]`` ends at exactly 0 because
    the final time is 1; its maximum location therefore falls strictly
    inside the path for any non-degenerate walk.  Argmax ties resolve to
    the smallest index.
    """
    abs_walk = np.abs(proc.walk)
    i_bm = int(np.argmax(abs_walk))
    s_n = float(proc.walk[-1])
    c_n = float(proc.raw_sums[-1])

    bridged = np.abs(proc.walk - proc.times * s_n)
    i_bb = int(np.argmax(bridged))

    p = proc.source.predictions
    return WalkStatistics(
        c_star=float(np.max(np.abs(proc.raw_sums))),
        s_star=float(abs_walk[i_bm]),
        s_n=s_n,
        c_n=c_n,
        b_star=float(bridged[i_bb]),
        argmax_bm=WalkLocation(i_bm + 1, float(proc.times[i_bm]), float(p[i_bm])),
        argmax_bb=WalkLocation(i_bb + 1, float(proc.times[i_bb]), float(p[i_bb])),
    )
