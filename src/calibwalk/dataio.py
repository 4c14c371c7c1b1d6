"""Dataset ingestion, analysis assembly and report serialization.

CSV in (named prediction/outcome columns, extra columns ignored), one
``analyze`` call that runs every test into an ``AnalysisReport``, JSON out
(schema version 1, stable key order, floats at shortest round-trip
precision so identical reports serialize to identical bytes).
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from ._version import __version__
from .data import (
    CalibrationDataset,
    CumulativeProcess,
    build_dataset,
    cumulative_process,
    walk_statistics,
)
from .stattests import (
    BBTestResult,
    BMTestResult,
    HLTestResult,
    MonteCarloResult,
    WeakCalibResult,
    bb_test_from_process,
    bm_test_from_process,
    hosmer_lemeshow_test,
    monte_carlo_test,
    weak_calibration_lr_test,
)

SCHEMA_VERSION = 1

# Total variance (proxy for effective sample size) below which the
# asymptotic references are not trustworthy.
SMALL_SAMPLE_VARIANCE = 30.0


@dataclass(frozen=True)
class DatasetSummary:
    n: int
    events: int
    mean_prediction: float
    total_variance: float
    tie_flag: bool
    small_sample_warning: bool


@dataclass(frozen=True)
class AnalysisReport:
    dataset: DatasetSummary
    bm: BMTestResult
    bb: BBTestResult
    hl: Optional[HLTestResult] = None
    weak_calibration: Optional[WeakCalibResult] = None
    monte_carlo: Optional[MonteCarloResult] = None
    tool_version: str = __version__
    timestamp: str = ""


def summarize_dataset(data: CalibrationDataset,
                      proc: CumulativeProcess) -> DatasetSummary:
    return DatasetSummary(
        n=data.n,
        events=data.event_count,
        mean_prediction=float(data.predictions.mean()),
        total_variance=proc.total_variance,
        tie_flag=data.tie_flag,
        small_sample_warning=proc.total_variance < SMALL_SAMPLE_VARIANCE,
    )


def _timestamp():
    stamp = os.environ.get("CALIBWALK_TIMESTAMP")
    if stamp:
        return stamp
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def analyze(data: CalibrationDataset, *, groups: int = 10,
            df_rule: str = "g_minus_2", hl: bool = True, lr: bool = True,
            mc: int = 0, seed: int = 0
            ) -> tuple[CumulativeProcess, AnalysisReport]:
    """Run every calibration test on one dataset.

    Returns the cumulative process (for plotting) and the report: the BM
    and BB walk tests, Hosmer-Lemeshow with ``groups`` rank groups and
    ``df_rule`` (skipped when ``hl`` is false or n < groups), the
    recalibration LR test (unless ``lr`` is false), and with ``mc > 0``
    both Monte Carlo p-values from one seeded null draw.
    ``report.dataset.small_sample_warning`` flags a total variance below
    ``SMALL_SAMPLE_VARIANCE``, where the asymptotic p-values are unreliable.
    The timestamp is ``$CALIBWALK_TIMESTAMP`` when set, else the current
    UTC time.
    """
    proc = cumulative_process(data)
    stats = walk_statistics(proc)
    report = AnalysisReport(
        dataset=summarize_dataset(data, proc),
        bm=bm_test_from_process(stats),
        bb=bb_test_from_process(stats),
        hl=(hosmer_lemeshow_test(data, groups, df_rule)
            if hl and data.n >= groups else None),
        weak_calibration=weak_calibration_lr_test(data) if lr else None,
        monte_carlo=monte_carlo_test(data, mc, seed, stats) if mc else None,
        timestamp=_timestamp(),
    )
    return proc, report


# ---------------------------------------------------------------------------
# CSV ingestion

def read_dataset_csv(source, prediction_column: str = "p",
                     outcome_column: str = "y",
                     clamp_epsilon=None) -> CalibrationDataset:
    """Read a two-column (or wider) CSV into a validated dataset.

    Accepts a path or an open text stream.  LF and CRLF line endings and a
    UTF-8 byte-order mark are all tolerated; extra columns are ignored.
    Parse errors name the offending data row (1-based, header and blank
    lines excluded).
    """
    if hasattr(source, "read"):
        return _read_csv_stream(source, prediction_column, outcome_column,
                                clamp_epsilon)
    with open(source, newline="", encoding="utf-8-sig") as handle:
        return _read_csv_stream(handle, prediction_column, outcome_column,
                                clamp_epsilon)


def _read_csv_stream(stream, prediction_column, outcome_column, clamp_epsilon):
    try:
        start = stream.tell()
    except OSError:  # a pipe, or a file already iterated with next()
        stream = io.StringIO(stream.read())
        start = 0
    try:
        header = next(csv.reader(stream), None)
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ValueError(f"unreadable header row: {exc}") from exc
    if header is None:
        raise ValueError("empty file: no header row")
    # a repeated name resolves to its last column, as csv.DictReader does
    position = {name: i for i, name in enumerate(header)}
    for column in (prediction_column, outcome_column):
        if column not in position:
            raise ValueError(f"missing column {column!r} (found {header})")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            predictions, outcomes = np.loadtxt(
                stream, dtype=np.float64, delimiter=",", quotechar='"',
                comments=None, ndmin=2, unpack=True,
                usecols=(position[prediction_column],
                         position[outcome_column]),
            )
    except ValueError:
        # numpy does not say which data row failed: rescan to name it
        stream.seek(start)
        _check_rows(stream, prediction_column, outcome_column)
        raise
    if predictions.size == 0:
        raise ValueError("no data rows")
    return build_dataset(predictions, outcomes, clamp_epsilon)


def _check_rows(stream, prediction_column, outcome_column):
    try:
        for row_number, row in enumerate(csv.DictReader(stream), start=1):
            for column in (prediction_column, outcome_column):
                _check_number(row[column], column, row_number)
    except csv.Error:
        # e.g. a field over csv's size limit, which numpy read past: the bad
        # cell lies further on, and numpy's own error names its value
        return


def _check_number(cell, column, row_number):
    # the grammar np.loadtxt parses: float()'s inside any str.isspace()
    # padding, minus digit-group underscores and non-ASCII digits
    try:
        core = cell.strip()
        if core.isascii() and "_" not in core:
            float(core)
            return
    except (AttributeError, ValueError):  # a short row leaves None
        pass
    raise ValueError(
        f"non-numeric value {cell!r} in column {column!r} at row {row_number}"
    )


# ---------------------------------------------------------------------------
# report serialization

# JSON section name, AnalysisReport attribute
_SECTIONS = (
    ("dataset", "dataset"),
    ("bm_test", "bm"),
    ("bb_test", "bb"),
    ("hosmer_lemeshow", "hl"),
    ("weak_calibration", "weak_calibration"),
    ("monte_carlo", "monte_carlo"),
)


def _section_to_dict(result) -> dict:
    return {k: v for k, v in asdict(result).items() if v is not None}


def report_to_dict(report: AnalysisReport) -> dict:
    d = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "calibwalk", "version": report.tool_version},
        "timestamp": report.timestamp,
    }
    for key, attribute in _SECTIONS:
        section = getattr(report, attribute)
        if section is not None:
            d[key] = _section_to_dict(section)
    return d


def _dump_json(payload, destination):
    text = json.dumps(payload, indent=2) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    Path(destination).write_text(text, encoding="utf-8", newline="\n")


def write_report_json(report: AnalysisReport, destination) -> None:
    """Serialize a report; identical reports produce byte-identical files."""
    _dump_json(report_to_dict(report), destination)


# ---------------------------------------------------------------------------
# study serialization

def study_to_dict(summaries) -> dict:
    cells = []
    for summary in summaries:
        cell = {
            "scenario": asdict(summary.scenario),
            "rejections": {k: summary.rejections[k]
                           for k in sorted(summary.rejections)},
            "standard_errors": {k: summary.standard_errors[k]
                                for k in sorted(summary.standard_errors)},
            "lr_failures": summary.lr_failures,
        }
        # null cells keep their samples for the ECDF figures
        if summary.scenario.family == "null":
            cell["pvalues"] = {
                k: np.asarray(summary.pvalues[k]).tolist()
                for k in sorted(summary.pvalues)
            }
        cells.append(cell)
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "calibwalk", "version": __version__},
        "cells": cells,
    }


def write_study_json(summaries, destination) -> None:
    """Serialize study cells with their full scenario echoes and seeds."""
    _dump_json(study_to_dict(summaries), destination)
