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
still reproduce bit-identically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .data import CalibrationDataset, build_dataset
from .dataio import analyze
from .stattests import _expit

FAMILIES = ("null", "logit_linear", "logit_power")

POWER_TESTS = ("lr", "hl", "bm", "bb")
NULL_TESTS = ("bm", "bb")
# Hosmer-Lemeshow rank groups in power cells
HL_GROUPS = 10


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.b > 0:
            raise ValueError("b must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be inside (0, 1)")
        if self.family != "null" and self.n < HL_GROUPS:
            raise ValueError(
                f"n={self.n} is smaller than groups={HL_GROUPS}")


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


def _replicate_rng(scenario: SimulationScenario, replicate_index: int):
    entropy = (scenario.seed, _cell_key(scenario), replicate_index)
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
        bent = scenario.b * np.sign(x) * np.abs(x) ** (1.0 / scenario.b)
        predictions = _expit(scenario.a + bent)
    return true_risk, predictions


def generate_dataset(scenario: SimulationScenario,
                     replicate_index: int) -> CalibrationDataset:
    """Draw one replicate dataset; deterministic in (scenario, index)."""
    rng = _replicate_rng(scenario, replicate_index)
    x = rng.standard_normal(scenario.n)
    true_risk, predictions = family_risk_and_predictions(scenario, x)
    outcomes = (rng.random(scenario.n) < true_risk).astype(np.float64)
    return build_dataset(predictions, outcomes)


def _rejection_summary(pvalue_samples, alpha):
    rejections, standard_errors = {}, {}
    for name, sample in pvalue_samples.items():
        m = len(sample)
        prop = float(np.count_nonzero(np.asarray(sample) < alpha)) / m
        rejections[name] = prop
        standard_errors[name] = math.sqrt(prop * (1.0 - prop) / m)
    return rejections, standard_errors


def run_scenario(scenario: SimulationScenario) -> SimulationSummary:
    """Run one cell: ``analyze`` on every replicate.

    Null cells keep the walk tests (``NULL_TESTS``), power cells every test
    (``POWER_TESTS``).  The Hosmer-Lemeshow comparator uses ``HL_GROUPS``
    groups and ``df = groups`` because the simulated predictions are
    externally fixed, never fitted to the replicate's outcomes.  A
    non-converged LR fit counts as a non-rejection and increments
    ``lr_failures``.  The summary carries every replicate's p-values.
    """
    power = scenario.family != "null"
    tests = POWER_TESTS if power else NULL_TESTS
    samples = {name: np.empty(scenario.replications) for name in tests}
    lr_failures = 0
    for r in range(scenario.replications):
        _, report = analyze(generate_dataset(scenario, r), groups=HL_GROUPS,
                            df_rule="g", hl=power, lr=power)
        samples["bm"][r] = report.bm.p_value
        samples["bb"][r] = report.bb.p_unified
        if power:
            samples["hl"][r] = report.hl.p_value
            weak = report.weak_calibration
            samples["lr"][r] = weak.p_value if weak.converged else 1.0
            if not weak.converged:
                lr_failures += 1
    rejections, standard_errors = _rejection_summary(samples, scenario.alpha)
    return SimulationSummary(
        scenario=scenario,
        rejections=rejections,
        standard_errors=standard_errors,
        lr_failures=lr_failures,
        pvalues=samples,
    )


def null_scenarios(beta0_grid, n_grid, replications: int, seed: int,
                   alpha: float) -> list[SimulationScenario]:
    """Every cell of a null study over a (beta0, n) grid, validated."""
    beta0_grid, n_grid = list(beta0_grid), list(n_grid)
    if not beta0_grid or not n_grid:
        raise ValueError("grids must be non-empty")
    return [SimulationScenario(family="null", n=n, replications=replications,
                               seed=seed, beta0=beta0, alpha=alpha)
            for beta0 in beta0_grid for n in n_grid]


def power_scenarios(family: str, a_grid, b_grid, n_grid, replications: int,
                    seed: int, alpha: float) -> list[SimulationScenario]:
    """Every cell of a power study over an (a, b, n) grid, validated."""
    if family not in ("logit_linear", "logit_power"):
        raise ValueError(f"family must be a power family, got {family!r}")
    a_grid, b_grid, n_grid = list(a_grid), list(b_grid), list(n_grid)
    if not a_grid or not b_grid or not n_grid:
        raise ValueError("grids must be non-empty")
    return [SimulationScenario(family=family, n=n, replications=replications,
                               seed=seed, a=a, b=b, alpha=alpha)
            for a in a_grid for b in b_grid for n in n_grid]


def run_null_study(beta0_grid, n_grid, replications: int = 10_000,
                   seed: int = 0,
                   alpha: float = 0.05) -> list[SimulationSummary]:
    """Null behavior over a (beta0, n) grid: both walk tests per replicate."""
    return [run_scenario(scenario) for scenario in
            null_scenarios(beta0_grid, n_grid, replications, seed, alpha)]


def run_power_study(family: str, a_grid, b_grid, n_grid,
                    replications: int = 2_500, seed: int = 0,
                    alpha: float = 0.05) -> list[SimulationSummary]:
    """Power over a fully factorial (a, b, n) grid: LR, HL and walk tests."""
    return [run_scenario(scenario) for scenario in
            power_scenarios(family, a_grid, b_grid, n_grid, replications,
                            seed, alpha)]


def pvalue_ecdf(pvalues):
    """Right-continuous ECDF sampled on 512 evenly spaced points of [0, 1]."""
    sample = np.sort(np.asarray(pvalues, dtype=np.float64))
    if sample.size == 0:
        raise ValueError("empty p-value sample")
    grid = np.linspace(0.0, 1.0, 512)
    values = np.searchsorted(sample, grid, side="right") / sample.size
    return grid, values
