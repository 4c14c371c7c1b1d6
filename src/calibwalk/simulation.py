"""Monte Carlo study runners: null behavior and power of the tests.

Three generator families, all driven by a single standard-normal draw per
observation:

* ``null``:         log-odds of the true risk are ``beta0 + X`` and the
                    model predicts that same risk (the null holds).
* ``logit_linear``: true risk has log-odds ``X``; predictions have
                    log-odds ``a + b * X`` (weak and moderate
                    miscalibration coincide, so the LR test is the gold
                    standard here).
* ``logit_power``:  true risk as above; predictions have log-odds
                    ``a + b * sign(X) |X|^(1/b)`` (an odd transform that
                    bends the calibration curve non-linearly).

Random streams derive from (root seed, hashed cell parameters, replicate
counter), so cells and replicates can run in any order or concurrently and
still reproduce bit-identically.  A cell runs its replicates in blocks of
about ``_STUDY_BLOCK_VALUES`` values: each row draws from its replicate's
own stream, and every p-value equals ``analyze`` on ``generate_dataset``
of that replicate, bit for bit.  A study runs its blocks on every usable
core, in this process and in forked worker processes, with no option to
set.  Each block writes its p-values in place, at its replicates' columns
of its cell's table, so a study gives the same bits on any number of
cores.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import (
    CalibrationDataset,
    _integer,
    _sort_rows,
    _walk_extremes,
    _walk_rows,
    build_dataset,
)
from ._pool import run_forked, shared
from .distributions import chi_square_sf, sup_abs_bm_sf
from .stattests import (
    _bb_p_values,
    _expit,
    _fit_rows,
    _hl_statistic,
    _rank_group_sums,
    _weak_calibration,
)

FAMILIES = ("null", "logit_linear", "logit_power")

POWER_TESTS = ("lr", "hl", "bm", "bb")
NULL_TESTS = ("bm", "bb")
# Hosmer-Lemeshow rank groups in power cells
HL_GROUPS = 10
# Values per block of study replicates, the unit a worker claims:
# max(1, _STUDY_BLOCK_VALUES // n) rows, 8 at n = 1000, whatever the number
# of workers.  A block's LR fits are one IRLS over its rows: at n = 1000,
# on a 2-vCPU host, they cost 138 us a row in blocks of 4 rows, 116 in
# blocks of 8 and 106 in blocks of 16, whose scratch nears 1 MB.  Blocks of
# 64 rows raised the peak RSS of a 3 x 3 power grid by a third.
_STUDY_BLOCK_VALUES = 1 << 13
# Bytes a study worker holds per value of its block, its scratch for
# ``run_forked`` (17.8 MB in all for a child at n = 1e5, on a 2-vCPU host)
_WORKER_BYTES_PER_VALUE = 120


@dataclass(frozen=True)
class SimulationScenario:
    family: str
    n: int
    replications: int
    seed: int
    beta0: float = 0.0
    a: float = 0.0
    b: float = 1.0
    alpha: float = 0.05

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name, minimum in (("n", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name), minimum))
        for name in ("beta0", "a", "b", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                # a Python float: the stream and JSON echo ignore the type
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf if value > 0 else -math.inf
            object.__setattr__(self, name, value)
        for name in ("beta0", "a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.b > 0:
            raise ValueError("b must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be inside (0, 1)")
        if self.family != "null" and self.n < HL_GROUPS:
            raise ValueError(
                f"n={self.n} is smaller than groups={HL_GROUPS}")

    @property
    def label(self) -> str:
        """Family and grid values to 6 significant digits, such as
        ``null beta0=-1 n=1000`` or ``logit_power a=0 b=1 n=250``."""
        if self.family == "null":
            values = f"beta0={self.beta0:g}"
        else:
            values = f"a={self.a:g} b={self.b:g}"
        return f"{self.family} {values} n={self.n}"


@dataclass(frozen=True)
class SimulationSummary:
    scenario: SimulationScenario
    rejections: dict
    standard_errors: dict
    lr_failures: int
    # excluded from equality: raw samples carry no extra information beyond
    # the seeded scenario
    pvalues: dict = field(compare=False)


def _cell_key(scenario: SimulationScenario) -> int:
    text = (f"{scenario.family}|{scenario.beta0!r}|{scenario.a!r}|"
            f"{scenario.b!r}|{scenario.n}")
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def _replicate_rng(seed: int, cell_key: int, replicate_index: int):
    entropy = (seed, cell_key, replicate_index)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def family_risk_and_predictions(scenario: SimulationScenario, x):
    """True event risks and (possibly miscalibrated) predictions for draws x."""
    if scenario.family == "null":
        predictions = _expit(scenario.beta0 + x)
        return predictions, predictions
    true_risk = _expit(x)
    if scenario.family == "logit_linear":
        predictions = _expit(scenario.a + scenario.b * x)
    else:
        # b sign(x) |x|^(1/b), in place; sign(x) |x|^(1/b) is copysign's,
        # bar the sign of a zero, which expit maps to 0.5 either way
        bent = np.abs(x)
        bent **= 1.0 / scenario.b
        np.copysign(bent, x, out=bent)
        bent *= scenario.b
        bent += scenario.a
        predictions = _expit(bent)
    return true_risk, predictions


def _generate_block(scenario: SimulationScenario, cell_key: int,
                    start: int, rows: int):
    """Predictions and outcomes of replicates ``start`` to ``start + rows``,
    unsorted, as (rows, n) arrays.

    Row i draws n standard normals and then n uniforms from replicate
    ``start + i``'s own generator, so a row does not depend on the block
    it is in.  ``cell_key`` is ``_cell_key(scenario)``.
    """
    x = np.empty((rows, scenario.n))
    u = np.empty((rows, scenario.n))
    for i in range(rows):
        rng = _replicate_rng(scenario.seed, cell_key, start + i)
        rng.standard_normal(out=x[i])
        rng.random(out=u[i])
    true_risk, predictions = family_risk_and_predictions(scenario, x)
    outcomes = (u < true_risk).astype(np.float64)
    # expit rounds log-odds above about 37 to exactly 1.0 and below about
    # -745 to 0.0; the clip moves only those, to the nearest doubles inside
    predictions = np.clip(predictions, np.nextafter(0.0, 1.0),
                          np.nextafter(1.0, 0.0))
    return predictions, outcomes


def generate_dataset(scenario: SimulationScenario,
                     replicate_index: int) -> CalibrationDataset:
    """Draw one replicate dataset; deterministic in (scenario, index)."""
    predictions, outcomes = _generate_block(
        scenario, _cell_key(scenario),
        _integer("replicate_index", replicate_index, 0), 1)
    return build_dataset(predictions[0], outcomes[0])


def _block_rows(scenario: SimulationScenario) -> int:
    return max(1, _STUDY_BLOCK_VALUES // scenario.n)


def _tests(scenario: SimulationScenario):
    return NULL_TESTS if scenario.family == "null" else POWER_TESTS


def _run_block(scenario: SimulationScenario, start: int, stop: int,
               pvalues) -> None:
    """Every test on replicates ``start`` to ``stop`` of one cell, a block
    of at most ``_block_rows(scenario)`` rows that starts at a multiple of
    it.  Write their p-values into columns ``start`` to ``stop`` of
    ``pvalues``, the cell's table with one row per test of
    ``_tests(scenario)``.

    Null cells run the walk tests, power cells every test.  The
    Hosmer-Lemeshow comparator uses ``HL_GROUPS`` groups and
    ``df = groups`` because the simulated predictions are externally
    fixed, never fitted to the replicate's outcomes.  An LR fit that did
    not converge has no p-value: its entry is NaN, which ``_summary``
    counts.  Generation, validation and sort, the walk, its extremes,
    the HL group sums and the LR fits take one pass over the block; each
    p-value is one call per row.
    """
    predictions, outcomes, _ = _sort_rows(*_generate_block(
        scenario, _cell_key(scenario), start, stop - start))
    # the error sums are dropped here; the bridge takes scratch of its own
    times, walk = _walk_rows(predictions, outcomes)[1:3]
    _, s_star, s_n, _, b_star = _walk_extremes(times, walk,
                                               np.empty_like(walk))
    del times, walk  # freed before the LR fit takes its scratch
    columns = dict(zip(_tests(scenario), pvalues[:, start:stop]))
    columns["bm"][:] = [sup_abs_bm_sf(s) for s in s_star.tolist()]
    columns["bb"][:] = [_bb_p_values(s, b)[2]
                        for s, b in zip(s_n.tolist(), b_star.tolist())]
    if scenario.family == "null":
        return
    sizes, observed, expected = _rank_group_sums(
        predictions, outcomes, HL_GROUPS)
    columns["hl"][:] = [
        chi_square_sf(_hl_statistic(zip(sizes, o, e)), HL_GROUPS)
        for o, e in zip(observed.tolist(), expected.tolist())]
    columns["lr"][:] = [
        weak.p_value if weak.converged else math.nan
        for weak in map(_weak_calibration, _fit_rows(predictions, outcomes))]


def _summary(scenario: SimulationScenario, pvalues) -> SimulationSummary:
    """A cell's summary from its table of p-values (see ``_run_block``).

    The NaNs of the LR row are its fits that did not converge: they are
    counted as ``lr_failures`` and then set to 1.0, a non-rejection.
    """
    samples = dict(zip(_tests(scenario), pvalues))
    lr = samples.get("lr", np.empty(0))  # a null cell has no LR row
    unfitted = np.isnan(lr)
    lr[unfitted] = 1.0
    rejections, standard_errors = {}, {}
    for name, sample in samples.items():
        prop = float(np.count_nonzero(sample < scenario.alpha)) / sample.size
        rejections[name] = prop
        standard_errors[name] = math.sqrt(prop * (1.0 - prop) / sample.size)
    return SimulationSummary(
        scenario=scenario,
        rejections=rejections,
        standard_errors=standard_errors,
        lr_failures=int(np.count_nonzero(unfitted)),
        pvalues=samples,
    )


def study_figure_names(scenarios) -> list:
    """The file stem of each study cell's figure, in cell order: its
    ``label`` with ``_`` for spaces.  Two cells with the same name raise a
    ValueError rather than one figure replacing the other."""
    names = []
    for scenario in scenarios:
        name = scenario.label.replace(" ", "_")
        if name in names:
            raise ValueError(
                f"two study cells share the figure name {name!r}; grid "
                f"values must differ within 6 significant digits"
            )
        names.append(name)
    return names


def _run_study(scenarios, progress=None) -> list[SimulationSummary]:
    """Build every cell and check its figure name, so a bad cell fails
    before the first replicate; then run every cell's blocks.

    The blocks run on ``run_forked``'s workers, with the largest block's
    ``_WORKER_BYTES_PER_VALUE`` per value as scratch: 18 at n = 1000, 7 at
    n = 1e5, one above n = 506811.  Each worker claims the next block, or
    above 1024 blocks the next run of blocks, as it finishes one and writes
    it in place, into its cell's ``shared`` table of p-values, the only
    result of a block.  Every replicate draws from its own stream and has
    its own column, so the summaries are bit-identical for any number of
    workers.  When a cell's last block is done,
    ``progress(done, total, summary)`` is called with the number of cells
    done so far.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("grids must be non-empty")
    study_figure_names(scenarios)
    # (cell, start, stop) of every block
    blocks = []
    for cell, scenario in enumerate(scenarios):
        rows = _block_rows(scenario)
        blocks += [(cell, start, min(start + rows, scenario.replications))
                   for start in range(0, scenario.replications, rows)]
    tables = [shared((len(_tests(s)), s.replications)) for s in scenarios]
    pending = collections.Counter(cell for cell, _, _ in blocks)
    summaries = [None] * len(scenarios)
    finished = 0

    def task(index):
        cell, start, stop = blocks[index]
        _run_block(scenarios[cell], start, stop, tables[cell])

    def done(index):
        nonlocal finished
        cell = blocks[index][0]
        pending[cell] -= 1
        if pending[cell]:
            return
        summaries[cell] = _summary(scenarios[cell], tables[cell])
        finished += 1
        if progress is not None:
            progress(finished, len(scenarios), summaries[cell])

    block_values = max(_block_rows(s) * s.n for s in scenarios)
    run_forked(task, len(blocks), _WORKER_BYTES_PER_VALUE * block_values,
               done)
    return summaries


def run_null_study(beta0_grid, n_grid, replications: int = 10_000,
                   seed: int = 0, alpha: float = 0.05, *,
                   progress=None) -> list[SimulationSummary]:
    """Null behavior over a (beta0, n) grid: both walk tests per replicate.
    ``progress(done, total, summary)``, if given, is called as each cell
    finishes, with the number of cells done so far."""
    return _run_study(
        (SimulationScenario(family="null", n=n, replications=replications,
                            seed=seed, beta0=beta0, alpha=alpha)
         for beta0, n in itertools.product(beta0_grid, n_grid)), progress)


def run_power_study(family: str, a_grid, b_grid, n_grid,
                    replications: int = 2_500, seed: int = 0,
                    alpha: float = 0.05, *,
                    progress=None) -> list[SimulationSummary]:
    """Power over a fully factorial (a, b, n) grid: LR, HL and walk tests.
    ``progress`` is called as in ``run_null_study``."""
    if family not in ("logit_linear", "logit_power"):
        raise ValueError(f"family must be a power family, got {family!r}")
    return _run_study(
        (SimulationScenario(family=family, n=n, replications=replications,
                            seed=seed, a=a, b=b, alpha=alpha)
         for a, b, n in itertools.product(a_grid, b_grid, n_grid)), progress)


def pvalue_ecdf(pvalues):
    """Right-continuous ECDF sampled on 512 evenly spaced points of [0, 1].

    An empty sample, a NaN or a value outside [0, 1] raises a ValueError.
    """
    sample = np.asarray(pvalues, dtype=np.float64)
    if sample.size == 0:
        raise ValueError("empty p-value sample")
    outside = ~((sample >= 0.0) & (sample <= 1.0))  # NaN included
    if outside.any():
        raise ValueError(
            f"p-value outside [0, 1]: {float(sample[outside][0])!r}")
    sample = np.sort(sample)
    grid = np.linspace(0.0, 1.0, 512)
    values = np.searchsorted(sample, grid, side="right") / sample.size
    return grid, values
