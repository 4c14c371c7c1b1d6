"""Benchmark workloads: seeded inputs, the CLI call, and output checks.

Each workload writes its inputs from the seed before any timing starts,
names the ``calibwalk`` command line to run on them, and checks what that
command wrote.  The checks recompute the walk statistics independently of
the package (plain float64 with ``math.fsum`` block sums), so a faster
program that changes a number is caught, not measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

# report.json values recomputed independently and compared at this tolerance
REL_TOL = 1e-9
# MC p-value vs asymptotic p-value: this many binomial standard errors ...
MC_SE_FACTOR = 6.0
# ... plus this much for the asymptotic approximation at n = 1e5
MC_ASYMPTOTIC_ALLOWANCE = 0.02


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _expit(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def draw_predictions(seed: int, n: int, intercept: float, slope: float):
    """``n`` distinct predictions in random order, with their true risks.

    True log-odds are N(-1, 1); the prediction is ``expit(intercept + slope
    * eta)``, so (0, 1) gives a calibrated model.  Predictions that round
    to a value already drawn are redrawn, which keeps the input free of
    ties (the walk of tied data depends on the within-tie order).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    eta = np.empty(0)
    while eta.size < n:
        eta = np.concatenate([eta, rng.normal(-1.0, 1.0, n - eta.size)])
        _, first = np.unique(_expit(intercept + slope * eta), return_index=True)
        eta = eta[np.sort(first)]
    eta = eta[rng.permutation(n)]
    predictions = _expit(intercept + slope * eta)
    outcomes = (rng.random(n) < _expit(eta)).astype(np.float64)
    if np.unique(predictions).size != n:
        raise AssertionError("generated predictions contain ties")
    return predictions, outcomes


def write_csv(path: Path, predictions, outcomes) -> dict:
    """Write ``p,y`` rows with ``repr`` floats, which read back exactly."""
    lines = ["p,y"]
    lines += [f"{p!r},{int(y)}" for p, y in zip(predictions.tolist(),
                                                outcomes.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return {"rows": len(predictions), "bytes": path.stat().st_size,
            "sha256": sha256_file(path)}


def _prefix_sums(values, block=1024):
    """Running sums with each block's offset summed by ``math.fsum``."""
    out = np.empty_like(values)
    offset = 0.0
    for start in range(0, values.size, block):
        chunk = values[start:start + block]
        out[start:start + block] = offset + np.cumsum(chunk)
        offset += math.fsum(chunk)
    return out


def walk_reference(predictions, outcomes) -> dict:
    """The statistics report.json must hold, recomputed from the raw rows."""
    order = np.argsort(predictions)
    p, y = predictions[order], outcomes[order]
    variances = p * (1.0 - p)
    errors = y - p
    total_variance = math.fsum(variances)
    total_error = math.fsum(errors)
    walk = _prefix_sums(errors) / math.sqrt(total_variance)
    times = _prefix_sums(variances) / total_variance
    s_n = total_error / math.sqrt(total_variance)
    return {
        "s_star": float(np.max(np.abs(walk))),
        "s_n": s_n,
        "b_star": float(np.max(np.abs(walk - times * s_n))),
        "c_n": total_error / p.size,
    }


def _probability_problems(values: dict) -> list:
    return [f"{name} = {value!r} is not a p-value in [0, 1]"
            for name, value in values.items()
            if not (isinstance(value, float) and 0.0 <= value <= 1.0)]


def _svg_problems(path: Path) -> list:
    try:
        # one-shot parse: expat fed in chunks is quadratic in the length of
        # a polyline's points attribute, which runs to 25 MB at n = 1e6
        root = ET.fromstring(path.read_bytes())
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name} does not parse as XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name} has root <{root.tag}>, not <svg>"]
    return []


def output_digests(outdir: Path) -> dict:
    """sha256 of each output; study.json is hashed without ``wall_time``."""
    digests = {}
    for path in sorted(outdir.iterdir()):
        if path.name == "study.json":
            study = json.loads(path.read_text(encoding="utf-8"))
            for cell in study["cells"]:
                cell.pop("wall_time", None)
            text = json.dumps(study, sort_keys=True).encode()
            digests[path.name] = hashlib.sha256(text).hexdigest()
        else:
            digests[path.name] = sha256_file(path)
    return digests


def lr_failures(outdir: Path) -> int:
    """Non-converged LR fits summed over study.json's cells (0 without one)."""
    path = outdir / "study.json"
    if not path.is_file():
        return 0
    study = json.loads(path.read_text(encoding="utf-8"))
    return sum(cell["lr_failures"] for cell in study["cells"])


class AnalysisWorkload:
    """``calibwalk test`` on one generated CSV."""

    def __init__(self, name, why, n, intercept, slope, mc=0):
        self.name, self.why, self.n = name, why, n
        self.intercept, self.slope, self.mc = intercept, slope, mc
        self.seed = None
        self.csv = None
        self.reference = None

    def prepare(self, seed: int, workdir: Path) -> dict:
        predictions, outcomes = draw_predictions(seed, self.n, self.intercept,
                                                 self.slope)
        self.seed = seed
        self.csv = workdir / "input.csv"
        facts = write_csv(self.csv, predictions, outcomes)
        # repr floats round-trip, so these arrays are exactly the CSV's rows
        self.reference = walk_reference(predictions, outcomes)
        return facts

    @property
    def work(self) -> float:
        """Rows per command; MC replicates requested when ``--mc`` is on."""
        return float(self.mc or self.n)

    @property
    def work_unit(self) -> str:
        return "replicates/s" if self.mc else "rows/s"

    def argv(self, outdir: Path) -> list:
        args = ["test", str(self.csv), "--out", str(outdir)]
        if self.mc:
            args += ["--mc", str(self.mc), "--seed", str(self.seed)]
        return args

    def check(self, outdir: Path) -> list:
        try:
            report = json.loads((outdir / "report.json").read_text("utf-8"))
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable: {exc}"]
        try:
            return self._check_report(report) + [
                problem for mode in ("bm", "bb")
                for problem in _svg_problems(outdir / f"cumulative_{mode}.svg")
            ]
        except (KeyError, TypeError) as exc:
            return [f"report.json lacks an expected entry: {exc!r}"]

    def _check_report(self, report: dict) -> list:
        problems = []
        dataset = report["dataset"]
        if dataset["n"] != self.n or dataset["tie_flag"]:
            problems.append(f"dataset summary is off: {dataset}")
        sections = {"s_star": "bm_test", "s_n": "bb_test",
                    "b_star": "bb_test", "c_n": "bb_test"}
        for key, section in sections.items():
            got, want = report[section][key], self.reference[key]
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-15):
                problems.append(f"{section}.{key} = {got!r}, "
                                f"recomputed {want!r}")
        bm, bb = report["bm_test"], report["bb_test"]
        pvalues = {
            "bm_test.p_value": bm["p_value"],
            "bb_test.p_a": bb["p_a"],
            "bb_test.p_b": bb["p_b"],
            "bb_test.p_unified": bb["p_unified"],
            "hosmer_lemeshow.p_value": report["hosmer_lemeshow"]["p_value"],
            "weak_calibration.p_value":
                report["weak_calibration"].get("p_value"),
        }
        if self.mc:
            mc = report["monte_carlo"]
            pvalues["monte_carlo.bm_p_value"] = mc["bm_p_value"]
            pvalues["monte_carlo.bb_p_value"] = mc["bb_p_value"]
            if mc["replications"] != self.mc or mc["seed"] != self.seed:
                problems.append(f"monte_carlo echo is off: {mc}")
        elif "monte_carlo" in report:
            problems.append("monte_carlo section present without --mc")
        problems += _probability_problems(pvalues)
        if self.mc and not problems:
            problems += self._mc_agreement(
                {"bm": (mc["bm_p_value"], bm["p_value"]),
                 "bb": (mc["bb_p_value"], bb["p_unified"])})
        return problems

    def _mc_agreement(self, pairs: dict) -> list:
        problems = []
        for which, (mc_p, asymptotic_p) in pairs.items():
            se = math.sqrt(asymptotic_p * (1.0 - asymptotic_p) / self.mc)
            # add-one estimator: (1 + k) / (M + 1) sits up to 1/(M + 1) off
            limit = (MC_SE_FACTOR * se + 1.0 / (self.mc + 1)
                     + MC_ASYMPTOTIC_ALLOWANCE)
            if abs(mc_p - asymptotic_p) > limit:
                problems.append(
                    f"{which}: MC p {mc_p:.4f} is {abs(mc_p - asymptotic_p):.4f}"
                    f" from asymptotic p {asymptotic_p:.4f} (limit {limit:.4f})")
        return problems


class PowerGridWorkload:
    """``calibwalk simulate power`` over a 3 x 3 (a, b) grid."""

    work_unit = "replicates/s"
    family = "logit-power"
    a_grid = (-0.25, 0.0, 0.25)
    b_grid = (0.5, 1.0, 2.0)
    alpha = 0.05
    tests = ("bb", "bm", "hl", "lr")

    def __init__(self, name, why, n, reps):
        self.name, self.why, self.n, self.reps = name, why, n, reps
        self.seed = None

    def prepare(self, seed: int, workdir: Path) -> dict:
        self.seed = seed
        return {"cells": len(self.a_grid) * len(self.b_grid), "n": self.n,
                "reps": self.reps}

    @property
    def work(self) -> float:
        """Study replicates per command."""
        return float(len(self.a_grid) * len(self.b_grid) * self.reps)

    def argv(self, outdir: Path) -> list:
        return (["simulate", "power", "--family", self.family, "--a"]
                + [repr(a) for a in self.a_grid] + ["--b"]
                + [repr(b) for b in self.b_grid]
                + ["--n", str(self.n), "--reps", str(self.reps),
                   "--seed", str(self.seed), "--out", str(outdir)])

    def check(self, outdir: Path) -> list:
        try:
            study = json.loads((outdir / "study.json").read_text("utf-8"))
            cells = {(c["scenario"]["a"], c["scenario"]["b"]): c
                     for c in study["cells"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"study.json unreadable: {exc!r}"]
        problems = []
        for a in self.a_grid:
            for b in self.b_grid:
                cell = cells.pop((a, b), None)
                if cell is None:
                    problems.append(f"cell a={a} b={b} missing")
                    continue
                try:
                    problems += self._check_cell(a, b, cell)
                except (KeyError, TypeError) as exc:
                    problems.append(f"cell a={a} b={b} lacks {exc!r}")
                problems += _svg_problems(
                    outdir / f"logit_power_a={a:g}_b={b:g}_n={self.n}.svg")
        if cells:
            problems.append(f"unexpected cells {sorted(cells)}")
        return problems

    def _check_cell(self, a, b, cell) -> list:
        problems = []
        scenario, rejections = cell["scenario"], cell["rejections"]
        if (scenario["n"], scenario["replications"], scenario["seed"]) != (
                self.n, self.reps, self.seed):
            problems.append(f"cell a={a} b={b} scenario echo is off")
        if sorted(rejections) != list(self.tests):
            problems.append(f"cell a={a} b={b} tests {sorted(rejections)}")
        for test, rate in rejections.items():
            if not 0.0 <= rate <= 1.0:
                problems.append(f"cell a={a} b={b} {test} rate {rate!r}")
        if not 0 <= cell["lr_failures"] <= self.reps:
            problems.append(f"cell a={a} b={b} lr_failures out of range")
        if (a, b) == (0.0, 1.0):
            # the calibrated cell: every test holds its level
            limit = self.alpha + MC_SE_FACTOR * math.sqrt(
                self.alpha * (1.0 - self.alpha) / self.reps)
            problems += [f"calibrated cell: {test} rejects {rate:.3f}"
                         for test, rate in rejections.items() if rate > limit]
        return problems


WORKLOADS = {
    w.name: w for w in (
        AnalysisWorkload(
            "analyze-1e6",
            "1e6 miscalibrated rows, HL+LR+both SVGs, no MC: CSV ingest and "
            "SVG render dominate; one large walk and IRLS fit",
            n=1_000_000, intercept=0.1, slope=0.9),
        AnalysisWorkload(
            "mc-1e5",
            "1e5 calibrated rows with --mc 1000: the Monte Carlo engine "
            "dominates; ingest and render run at a tenth of the size",
            n=100_000, intercept=0.0, slope=1.0, mc=1000),
        PowerGridWorkload(
            "power-grid",
            "simulate power, 3x3 grid at n=1000, 1800 replicates: per-call "
            "overhead of LR, generation, validate+sort, HL and the walk",
            n=1000, reps=200),
    )
}
