"""Command-line interface.

Subcommands: ``test`` (analyze a CSV of predictions and outcomes and
draw its cumulative plots), ``simulate`` (null or power studies),
``casestudy`` (synthetic two-model demonstration).  Exit codes: 0 success
(regardless of statistical outcome), 1 internal failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .data import _integer, build_dataset
from .dataio import (
    SMALL_SAMPLE_VARIANCE,
    analyze,
    read_dataset_csv,
    write_report_json,
    write_study_json,
)
from .simulation import run_null_study, run_power_study
from .stattests import _expit, fit_logistic_recalibration
from .svgplot import (
    render_binned_calibration_plot,
    render_cumulative_plot,
    render_study_figures,
)

_DF_RULES = {"g-2": "g_minus_2", "g": "g"}
_FAMILIES = {"logit-linear": "logit_linear", "logit-power": "logit_power"}


def _alpha(text: str) -> float:
    """``--alpha``: a significance level inside (0, 1), checked before any
    output is written."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a number inside (0, 1), got {text!r}"
        )
    return value


def _non_negative(text: str) -> int:
    """``--mc`` and ``--seed``: an integer >= 0, checked before any input
    is read."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}"
        )
    return value


class _OtherKindFlag(argparse.Action):
    """A flag of the other ``simulate`` kind: a usage error that names the
    kind it belongs to, instead of the root parser's "unrecognized
    arguments"."""

    def __init__(self, option_strings, dest, owner):
        super().__init__(option_strings, dest, nargs="*",
                         default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        self.owner = owner

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(
            self, f"belongs to 'calibwalk simulate {self.owner}'")


def _default_outdir():
    return os.environ.get("CALIBWALK_OUTDIR", ".")


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_files(outdir: Path, files: dict) -> list:
    """Write each name -> text entry of ``files`` under ``outdir``; return
    the paths.

    Callers render every file first, so a render that fails leaves no
    partial set of artifacts behind.
    """
    paths = []
    for name, text in files.items():
        path = outdir / name
        _write_text(path, text)
        paths.append(str(path))
    return paths


def _cumulative_plots(proc, report, alpha, prefix=""):
    """``{prefix}cumulative_bm.svg`` and ``..._bb.svg``: name -> SVG."""
    return {f"{prefix}cumulative_{mode}.svg":
            render_cumulative_plot(proc, mode, result, alpha)
            for mode, result in (("bm", report.bm), ("bb", report.bb))}


def _print_report(report):
    ds = report.dataset
    print(
        f"n = {ds.n}, events = {ds.events} "
        f"({100.0 * ds.events / ds.n:.1f}%), mean prediction = "
        f"{ds.mean_prediction:.4f}, total variance = {ds.total_variance:.2f}"
    )
    if ds.tie_flag:
        print(
            "warning: tied predictions present; statistics may depend on "
            "the within-tie input order"
        )
    if ds.small_sample_warning:
        print(
            f"warning: total variance below {SMALL_SAMPLE_VARIANCE:g}; "
            "asymptotic p-values are unreliable (consider --mc)"
        )
    bm = report.bm
    print(
        f"BM test: max |walk| = {bm.s_star:.4f} (raw {bm.c_star:.4g}) at "
        f"prediction {bm.location.prediction:.4g} "
        f"(t = {bm.location.time:.3f}), p = {bm.p_value:.4f}"
    )
    bb = report.bb
    print(
        f"BB test: terminal = {bb.s_n:.4f} (mean error {bb.c_n:.4g}, "
        f"p_A = {bb.p_a:.4f}); bridged max = {bb.b_star:.4f} at prediction "
        f"{bb.location_bridge.prediction:.4g} (p_B = {bb.p_b:.4f}); "
        f"unified p = {bb.p_unified:.4f}"
    )
    if report.hl is not None:
        hl = report.hl
        print(
            f"HL test: chi2 = {hl.statistic:.4f} ({hl.groups} groups, "
            f"{hl.df} df), p = {hl.p_value:.4f}"
        )
    if report.weak_calibration is not None:
        w = report.weak_calibration
        if w.converged:
            print(
                f"LR test: intercept = {w.intercept:.4f}, slope = "
                f"{w.slope:.4f}, LR = {w.lr_statistic:.4f}, "
                f"p = {w.p_value:.4f}"
            )
        else:
            print(
                "LR test: fit did not converge (separation or degenerate "
                "outcomes); no p-value"
            )
    if report.monte_carlo is not None:
        mc = report.monte_carlo
        print(
            f"Monte Carlo ({mc.replications} replications, seed "
            f"{mc.seed}): BM p = {mc.bm_p_value:.4f}, "
            f"BB p = {mc.bb_p_value:.4f}"
        )


def cmd_test(args) -> int:
    data = read_dataset_csv(
        args.data,
        prediction_column=args.prediction_column,
        outcome_column=args.outcome_column,
        clamp_epsilon=args.clamp,
    )
    proc, report = analyze(
        data, groups=args.groups, df_rule=_DF_RULES[args.df_rule],
        hl=not args.no_hl, lr=not args.no_lr, mc=args.mc, seed=args.seed,
    )
    figures = {} if args.no_plots else _cumulative_plots(proc, report,
                                                         args.alpha)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "report.json"
    write_report_json(report, report_path)
    _print_report(report)
    artifacts = [str(report_path)] + _write_files(outdir, figures)
    print("wrote " + ", ".join(artifacts))
    return 0


def _cell_done(done, total, summary):
    print(f"cell {done}/{total} done: {summary.scenario.label}",
          file=sys.stderr)


def cmd_simulate(args) -> int:
    if args.kind == "null":
        summaries = run_null_study(args.beta0, args.n, args.reps, args.seed,
                                   args.alpha, progress=_cell_done)
    else:
        summaries = run_power_study(_FAMILIES[args.family], args.a, args.b,
                                    args.n, args.reps, args.seed, args.alpha,
                                    progress=_cell_done)
    figures = {f"{key}.svg": svg
               for key, svg in render_study_figures(summaries).items()}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    study_path = outdir / "study.json"
    write_study_json(summaries, study_path)
    _write_files(outdir, figures)
    for summary in summaries:
        rates = ", ".join(
            f"{name}={summary.rejections[name]:.3f}"
            for name in sorted(summary.rejections)
        )
        print(f"{summary.scenario.label}: rejections {rates}")
    print(f"wrote {study_path} and {len(summaries)} figure(s) in {outdir}")
    return 0


def run_case_study(seed, dev_n=50_000, small_n=500, holdout_n=10_000,
                   out_dir=None, alpha=0.05):
    """Synthetic two-model contrast: large vs small development sample.

    Draws a population with true risk logit(p) = -2 + x, fits the
    single-predictor logistic model by IRLS on the full development split
    and on its first ``small_n`` rows, then evaluates both fits on a
    held-out split.  Returns per-model fits and analysis reports; artifacts
    (reports, binned plots with 10 and 20 rank groups, cumulative plots at
    level ``alpha``) are written when ``out_dir`` is given, once every
    figure of both models has rendered.
    """
    seed = _integer("seed", seed, 0)
    dev_n = _integer("dev_n", dev_n, 1)
    small_n = _integer("small_n", small_n, 1)
    holdout_n = _integer("holdout_n", holdout_n, 1)
    if small_n > dev_n:
        raise ValueError("small_n cannot exceed dev_n")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCA5E)))
    x_dev = rng.standard_normal(dev_n)
    y_dev = (rng.random(dev_n) < _expit(-2.0 + x_dev)).astype(float)
    x_hold = rng.standard_normal(holdout_n)
    y_hold = (rng.random(holdout_n) < _expit(-2.0 + x_hold)).astype(float)

    results = {}
    figures = {}
    for label, rows in (("full", slice(None)), ("small", slice(0, small_n))):
        carrier = build_dataset(_expit(x_dev[rows]), y_dev[rows])
        fit = fit_logistic_recalibration(carrier)
        predictions = _expit(fit.intercept + fit.slope * x_hold)
        holdout = build_dataset(predictions, y_hold)
        proc, report = analyze(holdout, groups=10, df_rule="g")
        results[label] = {"fit": fit, "report": report, "process": proc,
                          "dataset": holdout}
        if out_dir is not None:
            for name, bins in (("deciles", 10), ("fine", 20)):
                figures[f"{label}_binned_{name}.svg"] = \
                    render_binned_calibration_plot(holdout, bins)
            figures.update(_cumulative_plots(proc, report, alpha,
                                             prefix=f"{label}_"))
    if out_dir is not None:
        outdir = Path(out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for label, entry in results.items():
            write_report_json(entry["report"], outdir / f"{label}_report.json")
        _write_files(outdir, figures)
    return results


def cmd_casestudy(args) -> int:
    results = run_case_study(
        args.seed, dev_n=args.dev_n, small_n=args.small_n,
        holdout_n=args.holdout_n, out_dir=args.out, alpha=args.alpha,
    )
    for label in ("full", "small"):
        entry = results[label]
        fit = entry["fit"]
        print(f"--- {label} model (intercept {fit.intercept:.4f}, "
              f"slope {fit.slope:.4f}) on holdout ---")
        _print_report(entry["report"])
    print(f"wrote case-study artifacts in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibwalk",
        description="Assess calibration of binary risk predictions via "
                    "cumulative prediction-error random walks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every subcommand that writes files
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--alpha", type=_alpha, default=0.05,
                        help="significance level for critical lines and "
                             "rejection rates")
    output.add_argument("--out", default=_default_outdir(),
                        help="output directory (default: $CALIBWALK_OUTDIR "
                             "or .)")

    p_test = sub.add_parser("test", parents=[output],
                            help="run the calibration tests on a CSV")
    p_test.add_argument("data", help="CSV with prediction and outcome columns")
    p_test.add_argument("--prediction-column", default="p",
                        help="column of predicted risks (default: p)")
    p_test.add_argument("--outcome-column", default="y",
                        help="column of binary outcomes (default: y)")
    p_test.add_argument("--clamp", type=float, default=None, metavar="EPS",
                        help="clip predictions into [EPS, 1-EPS] before "
                             "validation")
    p_test.add_argument("--groups", type=int, default=10,
                        help="Hosmer-Lemeshow group count")
    p_test.add_argument("--df-rule", choices=sorted(_DF_RULES), default="g-2",
                        help="Hosmer-Lemeshow degrees of freedom: groups "
                             "- 2 (g-2, the default) or groups (g, for "
                             "validation data whose predictions were not "
                             "fitted to it)")
    p_test.add_argument("--mc", type=_non_negative, default=0, metavar="N",
                        help="also run Monte Carlo variants with N "
                             "replications")
    p_test.add_argument("--seed", type=_non_negative, default=0,
                        help="seed for the Monte Carlo variants")
    p_test.add_argument("--no-hl", action="store_true",
                        help="skip the Hosmer-Lemeshow comparator")
    p_test.add_argument("--no-lr", action="store_true",
                        help="skip the logistic recalibration LR test")
    p_test.add_argument("--no-plots", action="store_true",
                        help="write the report only")
    p_test.set_defaults(handler=cmd_test)

    study = argparse.ArgumentParser(add_help=False, parents=[output])
    study.add_argument("--n", type=int, nargs="+", required=True,
                       help="sample size grid")
    study.add_argument("--reps", type=int, required=True,
                       help="replications per cell")
    study.add_argument("--seed", type=_non_negative, default=0,
                       help="root seed of the replicate streams")
    p_sim = sub.add_parser("simulate", help="run a simulation study")
    p_sim.set_defaults(handler=cmd_simulate)
    kinds = p_sim.add_subparsers(dest="kind", required=True)
    # no abbreviations: null's --alpha and --beta0 would take --a and --b
    p_null = kinds.add_parser("null", parents=[study], allow_abbrev=False,
                              help="null behavior of the walk tests")
    p_null.add_argument("--beta0", type=float, nargs="+", default=[-1.0],
                        help="null-family intercept grid")
    p_power = kinds.add_parser("power", parents=[study], allow_abbrev=False,
                               help="power of LR, HL and the walk tests")
    p_power.add_argument("--family", choices=sorted(_FAMILIES),
                         default="logit-linear",
                         help="prediction log-odds a + b*X (logit-linear, "
                              "the default) or a + b*sign(X)|X|^(1/b) "
                              "(logit-power), for true log-odds X")
    p_power.add_argument("--a", type=float, nargs="+", default=[0.0],
                         help="miscalibration intercept grid")
    p_power.add_argument("--b", type=float, nargs="+", default=[1.0],
                         help="miscalibration slope grid")
    for kind, owner, flags in ((p_null, "power", ("--family", "--a", "--b")),
                               (p_power, "null", ("--beta0",))):
        for flag in flags:
            kind.add_argument(flag, action=_OtherKindFlag, owner=owner)

    p_case = sub.add_parser(
        "casestudy", parents=[output],
        help="synthetic large-vs-small development sample demonstration",
    )
    p_case.add_argument("--seed", type=_non_negative, required=True,
                        help="seed of the synthetic population")
    p_case.add_argument("--dev-n", type=int, default=50_000,
                        help="rows of the development sample the large "
                             "model is fitted on")
    p_case.add_argument("--small-n", type=int, default=500,
                        help="first rows of the development sample, which "
                             "the small model is fitted on")
    p_case.add_argument("--holdout-n", type=int, default=10_000,
                        help="rows of the held-out sample both models are "
                             "tested on")
    p_case.set_defaults(handler=cmd_casestudy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
