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
import stat
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import _pool
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
    _hl_df,
    _hl_groups,
    bb_test_from_process,
    bm_test_from_process,
    hosmer_lemeshow_test,
    monte_carlo_test,
    weak_calibration_lr_test,
)

SCHEMA_VERSION = 1

# A CSV file is parsed in ranges of whole lines of at least this many bytes,
# at most one range per worker: on a smaller range a forked worker costs
# more than it saves.
_RANGE_BYTES = 1 << 20

# numpy's loader reads and decodes every line before a range to skip it,
# about a sixth of the cost of parsing them, so range k of N re-reads k/N of
# the file.  On a 1e6-row file, 16 ranges instead of 8 cut the last range's
# parse, which bounds the wall time, by 0.016 s and add 0.16 s of CPU time.
_MAX_RANGES = 8

# A file's bytes are scanned with numpy masks of this many at a time
_SCAN_BYTES = 1 << 18

# numpy's loader opens a file with one of these suffixes through a
# decompressor; calibwalk reads every file as plain text
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

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

    The LR test runs first: its fit's scratch, 24 B/row, is freed before
    the walk is built, so the walk, its statistics and a caller's plots
    reuse that heap rather than growing it.
    """
    # checked before HL may be skipped, so a bad value always raises
    groups = _hl_groups(groups)
    _hl_df(groups, df_rule)
    weak = weak_calibration_lr_test(data) if lr else None
    proc = cumulative_process(data)
    stats = walk_statistics(proc)
    report = AnalysisReport(
        dataset=summarize_dataset(data, proc),
        bm=bm_test_from_process(stats),
        bb=bb_test_from_process(stats),
        hl=(hosmer_lemeshow_test(data, groups, df_rule)
            if hl and data.n >= groups else None),
        weak_calibration=weak,
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

    A path to a regular file is parsed on every usable CPU, up to
    ``_MAX_RANGES``, with no option to set: the calling process and
    processes forked from it parse one range of whole lines each, of at
    least 1 MiB, with numpy's chunked file reader.  One stream reader reads
    a stream instead, a file descriptor, a path to a pipe, FIFO or device,
    and a file in which a line may not be one row: one that holds a ``"``,
    or an empty line or a carriage return outside CRLF before its last row.
    So it does a file whose name ends in ``.gz``, ``.bz2``, ``.xz`` or
    ``.lzma`` (read as plain text), and a file whose split parse fails, so
    that the error names its row.  Both readers give the same arrays.
    """
    if hasattr(source, "read"):
        return _read_csv_stream(source, prediction_column, outcome_column,
                                clamp_epsilon)
    with open(source, newline="", encoding="utf-8-sig") as handle:
        # only a regular file may be opened again by name and read twice;
        # a pipe, a FIFO or a device is read once, as a stream
        if (isinstance(source, (str, bytes, os.PathLike))
                and stat.S_ISREG(os.fstat(handle.fileno()).st_mode)):
            usecols = _read_header(handle, prediction_column, outcome_column)
            table = _read_csv_ranges(source, usecols)
            if table is not None:
                return _to_dataset(table, clamp_epsilon)
            handle.seek(0)
        return _read_csv_stream(handle, prediction_column, outcome_column,
                                clamp_epsilon)


def _read_csv_stream(stream, prediction_column, outcome_column, clamp_epsilon):
    try:
        start = stream.tell()
    except OSError:  # a pipe, or a file already iterated with next()
        # held as UTF-8, 1 byte per ASCII character where a StringIO takes 4
        stream = io.TextIOWrapper(
            io.BytesIO(stream.read().encode("utf-8", "surrogatepass")),
            "utf-8", "surrogatepass", newline="")
        start = 0
    usecols = _read_header(stream, prediction_column, outcome_column)
    try:
        table = _loadtxt(stream, usecols)
    except ValueError:
        # numpy does not say which data row failed: rescan to name it
        stream.seek(start)
        _check_rows(stream, prediction_column, outcome_column)
        raise
    return _to_dataset(table, clamp_epsilon)


def _read_header(stream, prediction_column, outcome_column):
    """The indices of the two named columns, from the header row."""
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
    return position[prediction_column], position[outcome_column]


def _loadtxt(source, usecols, **options):
    """The ``usecols`` columns of ``source`` as a (rows, 2) float array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no")
        return np.loadtxt(source, dtype=np.float64, delimiter=",",
                          quotechar='"', comments=None, ndmin=2,
                          usecols=usecols, **options)


def _to_dataset(table, clamp_epsilon):
    if table.size == 0:
        raise ValueError("no data rows")
    return build_dataset(table[:, 0], table[:, 1], clamp_epsilon)


def _read_csv_ranges(source, usecols):
    """The (rows, 2) table of the regular CSV file at path ``source``, its
    ranges of rows parsed by numpy's chunked file reader, one on each of the
    pool's workers (``_pool._workers``, at most ``_MAX_RANGES``); None where
    the stream reader must read the file instead.

    Each worker writes its rows into one ``_pool.shared`` table.
    """
    # absolute, so that numpy's loader never takes the name for a URL
    path = os.path.abspath(os.fsdecode(source))
    if path.endswith(_COMPRESSED_SUFFIXES):
        return None
    bounds = _row_bounds(path, _pool._workers(_MAX_RANGES, 0))
    if bounds is None:
        return None
    table = _pool.shared((bounds[-1], 2))

    def parse(index):
        start, stop = bounds[index], bounds[index + 1]
        # line 0 is the header and no line is empty, so row i is line i + 1;
        # a range with fewer rows than lines fails to broadcast
        table[start:stop] = _loadtxt(path, usecols, skiprows=start + 1,
                                     max_rows=stop - start,
                                     encoding="utf-8-sig")

    ranges = len(bounds) - 1
    try:
        _pool.run_forked(parse, ranges)
    except ValueError:
        return None  # the stream reader's error names the row
    return table


def _row_bounds(path, workers):
    """The body of the CSV file at ``path`` cut into at most ``workers``
    ranges of whole lines of about ``_RANGE_BYTES`` or more, as the index of
    each range's first row and, last, the number of rows.

    None where the lines that end in ``\\n`` may not be numpy's rows: a
    carriage return outside CRLF ends a line too, a quoted field may span
    lines, and an empty line before the last row counts in numpy's
    ``skiprows`` but not in its ``max_rows``.  None too for a file with no
    rows.  The scan holds the file's bytes and masks of ``_SCAN_BYTES``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if b'"' in data:
        return None
    # empty lines at the end are past the last row
    end = len(data)
    while end and data[end - 1] in b"\r\n":
        end -= 1
    body = data.find(b"\n", 0, end) + 1  # after the header line
    if not body:
        return None
    codes = np.frombuffer(data, np.uint8, end)
    if not _lines_are_rows(codes, data.find(b"\r", 0, end) >= 0):
        return None
    parts = max(1, min(workers, (end - body) // _RANGE_BYTES))
    cuts = []
    for k in range(1, parts):
        cut = data.find(b"\n", body + (end - body) * k // parts, end) + 1
        if cut and cut not in cuts:  # a line may span several targets
            cuts.append(cut)
    # every line from the body on ends in a newline but the last
    rows = [_newlines(codes[start:stop])
            for start, stop in zip([body, *cuts], [*cuts, end])]
    rows[-1] += 1
    return np.cumsum([0, *rows]).tolist()


def _lines_are_rows(codes, carriage):
    """Whether no line of ``codes``, a file's bytes up to its last row, is
    empty, and (where ``carriage``) each carriage return is one of a CRLF."""
    # a block at a time, each with the next block's first byte, so the
    # masks stay small
    for lo in range(0, codes.size, _SCAN_BYTES):
        block = codes[lo:lo + _SCAN_BYTES + 1]
        newline = block == 10
        ends_line = newline[1:]
        if carriage:
            returns = block == 13
            if np.any(returns[:-1] & ~ends_line):
                return False  # a carriage return outside CRLF
            ends_line = ends_line | returns[1:]  # an empty CRLF line
        if np.any(newline[:-1] & ends_line):
            return False
    return True


def _newlines(codes):
    return sum(int(np.count_nonzero(codes[lo:lo + _SCAN_BYTES] == 10))
               for lo in range(0, codes.size, _SCAN_BYTES))


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
