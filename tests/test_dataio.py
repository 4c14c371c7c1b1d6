"""CSV ingestion, analysis assembly, JSON report/study round trips."""

import io
import json
import os
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calibwalk import (
    MonteCarloResult,
    analyze,
    build_dataset,
    cumulative_process,
    hosmer_lemeshow_test,
    monte_carlo_test,
    walk_statistics,
    read_dataset_csv,
    weak_calibration_lr_test,
    write_report_json,
    write_study_json,
)
from calibwalk import dataio, stattests
from calibwalk.stattests import bb_test_from_process, bm_test_from_process
from calibwalk.data import WalkLocation
from calibwalk.dataio import (
    AnalysisReport,
    report_to_dict,
    study_to_dict,
    summarize_dataset,
)
from calibwalk.simulation import SimulationScenario, _run_study, run_null_study


def _sample_report(seed=0, n=300, with_optional=True):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 0.9, n)
    y = (rng.random(n) < p).astype(float)
    data = build_dataset(p, y)
    proc = cumulative_process(data)
    stats = walk_statistics(proc)
    return AnalysisReport(
        dataset=summarize_dataset(data, proc),
        bm=bm_test_from_process(stats),
        bb=bb_test_from_process(stats),
        hl=hosmer_lemeshow_test(data) if with_optional else None,
        weak_calibration=weak_calibration_lr_test(data) if with_optional else None,
        monte_carlo=MonteCarloResult(100, 1, 0.5, 0.25)
        if with_optional else None,
        timestamp="2024-01-01T00:00:00+00:00",
    )


class TestReadCsv:
    def test_two_point_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("p,y\n0.2,0\n0.6,1\n")
        data = read_dataset_csv(path)
        np.testing.assert_array_equal(data.predictions, [0.2, 0.6])
        np.testing.assert_array_equal(data.outcomes, [0, 1])

    def test_nonnumeric_cell_names_row(self):
        with pytest.raises(ValueError, match="row 1"):
            read_dataset_csv(io.StringIO("p,y\n0.5,yes\n"))

    def test_extra_columns_ignored(self):
        data = read_dataset_csv(
            io.StringIO("id,p,extra,y\n7,0.2,x,0\n8,0.6,z,1\n")
        )
        assert data.n == 2

    def test_custom_column_names(self):
        data = read_dataset_csv(
            io.StringIO("risk,event\n0.3,1\n"),
            prediction_column="risk", outcome_column="event",
        )
        assert data.predictions[0] == 0.3

    def test_missing_column(self):
        with pytest.raises(ValueError, match="missing column"):
            read_dataset_csv(io.StringIO("a,b\n1,2\n"))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty file"):
            read_dataset_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset_csv(io.StringIO("p,y\n"))

    def test_crlf_and_bom(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfp,y\r\n0.2,0\r\n0.6,1\r\n")
        data = read_dataset_csv(path)
        assert data.n == 2

    def test_clamp_passthrough(self):
        data = read_dataset_csv(io.StringIO("p,y\n1.0,1\n0.5,0\n"),
                                clamp_epsilon=1e-6)
        assert data.predictions[-1] == 1.0 - 1e-6


class TestCsvContract:
    def test_quoted_numeric_cells(self):
        data = read_dataset_csv(
            io.StringIO('"p","y"\n"0.2","0"\n"0.6",1\n')
        )
        np.testing.assert_array_equal(data.predictions, [0.2, 0.6])
        np.testing.assert_array_equal(data.outcomes, [0, 1])

    def test_blank_lines_skipped_and_not_counted(self):
        data = read_dataset_csv(io.StringIO("p,y\n0.2,0\n\n0.6,1\n\n"))
        np.testing.assert_array_equal(data.predictions, [0.2, 0.6])
        with pytest.raises(ValueError, match="'y' at row 2$"):
            read_dataset_csv(io.StringIO("p,y\n0.2,0\n\n0.6,x\n"))

    def test_short_row_names_row(self):
        with pytest.raises(ValueError, match="in column 'y' at row 2$"):
            read_dataset_csv(io.StringIO("p,y\n0.2,0\n0.6\n0.7,1\n"))

    def test_cells_with_surrounding_spaces(self):
        data = read_dataset_csv(io.StringIO("p,y\n 0.2 , 1 \n0.6,0\n"))
        np.testing.assert_array_equal(data.predictions, [0.2, 0.6])
        np.testing.assert_array_equal(data.outcomes, [1, 0])

    def test_hash_is_not_a_comment(self):
        data = read_dataset_csv(io.StringIO("id,p,y\n#1,0.2,0\n#2,0.6,1\n"))
        assert data.n == 2
        with pytest.raises(
                ValueError,
                match=r"non-numeric value '0\.6#' in column 'p' at row 2$"):
            read_dataset_csv(io.StringIO("p,y\n0.2,0\n0.6#,1\n"))

    def test_bad_outcome_cell_names_row(self):
        with pytest.raises(
                ValueError,
                match=r"^non-numeric value 'yes' in column 'y' at row 3$"):
            read_dataset_csv(io.StringIO("p,y\n0.2,0\n0.3,1\n0.6,yes\n"))

    def test_bom_crlf_and_extra_columns_together(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'\xef\xbb\xbfid,p,note,y\r\n1,0.2,"a,b",0\r\n'
                         b'2,0.6,c,1\r\n')
        data = read_dataset_csv(path)
        np.testing.assert_array_equal(data.predictions, [0.2, 0.6])
        np.testing.assert_array_equal(data.outcomes, [0, 1])

    def test_oversized_field_is_an_input_error(self):
        # 200 000 characters is over csv's default 131072 field limit
        big = "x" * 200_000
        with pytest.raises(ValueError, match="^unreadable header row: field"):
            read_dataset_csv(io.StringIO(f"p,y,{big}\n0.2,0,a\n"))
        # the rescan stops at the oversized field; numpy's error names the
        # bad value beyond it
        text = f"p,y,note\n0.2,0,a\n\n0.3,1,{big}\n0.6,q,b\n"
        with pytest.raises(ValueError, match="could not convert string 'q'"):
            read_dataset_csv(io.StringIO(text))
        assert read_dataset_csv(io.StringIO(text.replace("q", "1"))).n == 3

    @given(st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.integers(0, 1)),
        min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_repr_floats_read_back_bit_identical(self, rows):
        text = "p,y\n" + "".join(f"{p!r},{y}\n" for p, y in rows)
        data = read_dataset_csv(io.StringIO(text))
        expected = build_dataset([p for p, _ in rows], [y for _, y in rows])
        assert data.predictions.tobytes() == expected.predictions.tobytes()
        assert data.outcomes.tobytes() == expected.outcomes.tobytes()
        assert data.tie_flag == expected.tie_flag


# over csv's default 131072-character field limit
_BIG = "x" * 200_000

# every grammar case of TestReadCsv and TestCsvContract, as file bytes and
# read_dataset_csv keyword arguments
_GRAMMAR = {
    "two_points": (b"p,y\n0.2,0\n0.6,1\n", {}),
    "nonnumeric": (b"p,y\n0.5,yes\n", {}),
    "extra_columns": (b"id,p,extra,y\n7,0.2,x,0\n8,0.6,z,1\n", {}),
    "repeated_column": (b"p,y,p\n0.1,0,0.2\n0.3,1,0.4\n0.5,0,0.6\n", {}),
    "custom_names": (b"risk,event\n0.3,1\n0.4,0\n",
                     {"prediction_column": "risk",
                      "outcome_column": "event"}),
    "missing_column": (b"a,b\n1,2\n", {}),
    "empty": (b"", {}),
    "header_only": (b"p,y\n", {}),
    "header_only_no_newline": (b"p,y", {}),
    "crlf_bom": (b"\xef\xbb\xbfp,y\r\n0.2,0\r\n0.6,1\r\n", {}),
    "clamp": (b"p,y\n1.0,1\n0.5,0\n", {"clamp_epsilon": 1e-6}),
    "quoted": (b'"p","y"\n"0.2","0"\n"0.6",1\n', {}),
    "blank_lines": (b"p,y\n0.2,0\n\n0.6,1\n\n", {}),
    "blank_line_then_bad_cell": (b"p,y\n0.2,0\n\n0.6,x\n", {}),
    "trailing_blank_lines": (b"p,y\n0.2,0\n0.6,1\n0.7,0\n\n\r\n\n", {}),
    "final_carriage_return": (b"p,y\n0.2,0\n0.3,1\n0.6,1\r", {}),
    "trailing_lone_carriage_returns": (b"p,y\r\n0.2,0\r\n0.6,1\r\r\n\r", {}),
    "short_row": (b"p,y\n0.2,0\n0.6\n0.7,1\n", {}),
    "padded": (b"p,y\n 0.2 , 1 \n0.6,0\n", {}),
    "whitespace_line": (b"p,y\n0.2,0\n  \n0.6,1\n", {}),
    "hash_cells": (b"id,p,y\n#1,0.2,0\n#2,0.6,1\n", {}),
    "hash_suffix": (b"p,y\n0.2,0\n0.6#,1\n", {}),
    "bad_outcome": (b"p,y\n0.2,0\n0.3,1\n0.6,yes\n", {}),
    "bom_crlf_extra": (b'\xef\xbb\xbfid,p,note,y\r\n1,0.2,"a,b",0\r\n'
                       b"2,0.6,c,1\r\n", {}),
    "oversized_header": (f"p,y,{_BIG}\n0.2,0,a\n".encode(), {}),
    "oversized_field": (f"p,y,note\n0.2,0,a\n\n0.3,1,{_BIG}\n0.6,q,b\n"
                        .encode(), {}),
    "oversized_field_valid": (f"p,y,note\n0.2,0,a\n\n0.3,1,{_BIG}\n0.6,1,b\n"
                              .encode(), {}),
    "oversized_field_no_blank": (f"p,y,note\n0.2,0,a\n0.3,1,{_BIG}\n"
                                 f"0.6,q,b\n".encode(), {}),
    "invalid_utf8": (b"p,y\n0.2,0\n0.6,\xff\n", {}),
    "out_of_range": (b"p,y\n0.2,0\n1.6,1\n", {}),
}


# files whose lines ending in \n may not be numpy's rows
_NOT_ROWS = {
    "quoted_column": b'p,y,note\n0.2,0,"a"\n0.3,1,b\n0.6,1,c\n',
    "interior_empty_line": b"p,y\n0.2,0\n0.3,1\n\n0.6,1\n",
    "lone_carriage_return": b"p,y\n0.2,0\n0.3,1\r0.6,1\n0.7,0\n",
    "interior_empty_crlf_line": b"p,y\r\n0.2,0\r\n0.3,1\r\n\r\n0.6,1\r\n",
}


@pytest.fixture
def split_files(monkeypatch):
    """Cut CSV files into ranges of a few bytes, on up to three workers."""
    monkeypatch.setattr(dataio, "_RANGE_BYTES", 4)
    monkeypatch.setattr(dataio._pool, "_usable_cpus", lambda: 3)


def _outcome(read):
    """The arrays ``read()`` returns, or the type and text it raises."""
    try:
        data = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return (data.predictions.tobytes(), data.outcomes.tobytes(),
            data.tie_flag)


def _stream_outcome(raw, **kwargs):
    text = raw.decode("utf-8-sig")
    return _outcome(lambda: read_dataset_csv(io.StringIO(text, newline=""),
                                             **kwargs))


def _csv_lines(rows):
    return "p,y\n" + "".join(f"{p!r},{y}\n" for p, y in rows)


class TestPathMatchesStream:
    """A path is parsed in row ranges; it must read as the same text in a
    stream does, arrays or error alike."""

    @pytest.mark.parametrize("case", sorted(_GRAMMAR))
    def test_grammar_case(self, case, tmp_path, split_files):
        raw, kwargs = _GRAMMAR[case]
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        if case == "invalid_utf8":  # no text for a stream to hold
            with pytest.raises(UnicodeDecodeError):
                read_dataset_csv(path)
            return
        assert _outcome(lambda: read_dataset_csv(path, **kwargs)) == \
            _stream_outcome(raw, **kwargs)

    def test_files_split_into_ranges(self, tmp_path, split_files):
        path = tmp_path / "d.csv"
        path.write_bytes(_GRAMMAR["crlf_bom"][0])
        assert dataio._row_bounds(str(path), 3) == [0, 1, 2]
        path.write_bytes(_GRAMMAR["bad_outcome"][0])
        assert dataio._row_bounds(str(path), 3) == [0, 2, 3]
        path.write_bytes(_GRAMMAR["trailing_lone_carriage_returns"][0])
        assert dataio._row_bounds(str(path), 3) == [0, 1, 2]

    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 7])
    def test_scan_blocks_give_the_same_bounds(self, scan_bytes, tmp_path,
                                              split_files, monkeypatch):
        path = tmp_path / "d.csv"
        # each byte its own block at scan_bytes=1, so no 200 kB field
        files = [raw for raw, _ in _GRAMMAR.values() if len(raw) < 1000]
        files += _NOT_ROWS.values()

        def all_bounds():
            bounds = []
            for raw in files:
                path.write_bytes(raw)
                bounds.append(dataio._row_bounds(str(path), 3))
            return bounds

        expected = all_bounds()
        monkeypatch.setattr(dataio, "_SCAN_BYTES", scan_bytes)
        assert all_bounds() == expected

    @given(st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.integers(0, 1)),
        min_size=3, max_size=40))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_repr_floats_read_back_bit_identical(self, tmp_path, split_files,
                                                 rows):
        path = tmp_path / "d.csv"
        path.write_text(_csv_lines(rows), encoding="utf-8")
        assert len(dataio._row_bounds(str(path), 3)) > 2
        data = read_dataset_csv(path)
        expected = build_dataset([p for p, _ in rows], [y for _, y in rows])
        assert data.predictions.tobytes() == expected.predictions.tobytes()
        assert data.outcomes.tobytes() == expected.outcomes.tobytes()
        assert data.tie_flag == expected.tie_flag

    def test_bad_cell_in_last_range_names_its_row(self, tmp_path,
                                                  split_files):
        text = _csv_lines([(0.01 * i, i % 2) for i in range(1, 30)])
        path = tmp_path / "d.csv"
        path.write_text(text + "0.5,yes\n", encoding="utf-8")
        assert len(dataio._row_bounds(str(path), 3)) == 4
        with pytest.raises(
                ValueError,
                match=r"^non-numeric value 'yes' in column 'y' at row 30$"):
            read_dataset_csv(path)


class TestStreamReaderFallback:
    """Files whose lines may not be numpy's rows take the stream reader."""

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_reads_as_text(self, suffix, tmp_path,
                                             split_files):
        raw = _GRAMMAR["bad_outcome"][0].replace(b"yes", b"1")
        path = tmp_path / f"data.csv{suffix}"
        path.write_bytes(raw)
        assert _outcome(lambda: read_dataset_csv(path)) == \
            _stream_outcome(raw)

    @pytest.mark.parametrize("raw", _NOT_ROWS.values(), ids=_NOT_ROWS)
    def test_lines_that_may_not_be_rows(self, raw, tmp_path, split_files):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        assert dataio._row_bounds(str(path), 3) is None
        assert _outcome(lambda: read_dataset_csv(path)) == \
            _stream_outcome(raw)

    def test_ranges_run_in_process_without_fork(self, tmp_path, split_files,
                                                monkeypatch, thread_alive):
        rows = [(0.01 * i, i % 2) for i in range(1, 30)]
        path = tmp_path / "d.csv"
        path.write_text(_csv_lines(rows), encoding="utf-8")
        expected = build_dataset([p for p, _ in rows], [y for _, y in rows])

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(dataio._pool.os, "fork", no_fork)
        assert len(dataio._row_bounds(str(path), 3)) == 4
        with thread_alive():
            data = read_dataset_csv(path)
        assert data.predictions.tobytes() == expected.predictions.tobytes()
        assert data.outcomes.tobytes() == expected.outcomes.tobytes()

    @pytest.mark.parametrize("case", ["two_points", "quoted", "bad_outcome",
                                      "crlf_bom",
                                      "trailing_lone_carriage_returns"])
    @pytest.mark.parametrize("kind", ["dev_fd_path", "file_descriptor"])
    def test_pipe_reads_as_a_stream(self, case, kind, split_files):
        raw, kwargs = _GRAMMAR[case]
        read_end, write_end = os.pipe()
        os.write(write_end, raw)
        os.close(write_end)
        try:
            source = f"/dev/fd/{read_end}" if kind == "dev_fd_path" \
                else read_end
            outcome = _outcome(lambda: read_dataset_csv(source, **kwargs))
        finally:
            if kind == "dev_fd_path":  # open() closes a descriptor it gets
                os.close(read_end)
        assert outcome == _stream_outcome(raw, **kwargs)

    def test_piped_text_is_held_as_bytes(self):
        # piped text is parsed from its UTF-8 bytes, 1 B per ASCII
        # character; a StringIO holds 4 B per character
        rng = np.random.default_rng(2)
        rows = zip(rng.uniform(0.05, 0.95, 50_000).tolist(),
                   rng.integers(0, 2, 50_000).tolist())
        raw = _csv_lines(rows).encode()
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as writer:
                writer.write(raw)

        writer = threading.Thread(target=write)
        writer.start()
        tracemalloc.start()
        try:
            data = read_dataset_csv(read_end)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(20)
        assert not writer.is_alive()
        assert data.n == 50_000
        assert peak / len(raw) < 4.0, f"{peak / len(raw):.2f} B/char"

    def test_named_fifo_is_opened_once(self, tmp_path, split_files):
        raw = _GRAMMAR["bad_outcome"][0].replace(b"yes", b"1")
        fifo = tmp_path / "d.csv"
        os.mkfifo(fifo)
        done = threading.Event()

        def write():
            with open(fifo, "wb") as writer:
                writer.write(raw)
            if not done.wait(10):
                # a second open for reading waits for a writer: end it
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    pass

        writer = threading.Thread(target=write)
        writer.start()
        try:
            outcome = _outcome(lambda: read_dataset_csv(fifo))
        finally:
            done.set()
            writer.join(20)
        assert not writer.is_alive()
        assert outcome == _stream_outcome(raw)

    def test_ranges_are_capped(self, tmp_path, split_files, monkeypatch):
        rows = [(0.01 * i, i % 2) for i in range(1, 60)]
        path = tmp_path / "d.csv"
        path.write_text(_csv_lines(rows), encoding="utf-8")
        expected = build_dataset([p for p, _ in rows], [y for _, y in rows])
        row_bounds = dataio._row_bounds
        ranges = []

        def counted(path, workers):
            bounds = row_bounds(path, workers)
            ranges.append(len(bounds) - 1)
            return bounds

        monkeypatch.setattr(dataio._pool, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(dataio, "_row_bounds", counted)
        data = read_dataset_csv(path)
        assert ranges == [dataio._MAX_RANGES]
        assert data.predictions.tobytes() == expected.predictions.tobytes()
        assert data.outcomes.tobytes() == expected.outcomes.tobytes()


def _field_names(cls):
    return [f.name for f in fields(cls)]


class TestReportRoundTrip:
    def test_structural_equality(self, tmp_path):
        # every section holds its result's fields, in declaration order
        report = _sample_report()
        path = tmp_path / "report.json"
        write_report_json(report, path)
        d = json.loads(path.read_text(encoding="utf-8"))
        for key, attribute in dataio._SECTIONS:
            result = getattr(report, attribute)
            assert list(d[key]) == _field_names(type(result))
        for key, name in (("bm_test", "location"),
                          ("bb_test", "location_bridge")):
            assert list(d[key][name]) == _field_names(WalkLocation)
        assert list(d["hosmer_lemeshow"]["group_table"][0]) == \
            _field_names(stattests.HLGroup)

    def test_byte_identical_writes(self, tmp_path):
        report = _sample_report()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(report, a)
        write_report_json(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_optional_sections_absent_not_null(self):
        d = report_to_dict(_sample_report(with_optional=False))
        assert "hosmer_lemeshow" not in d
        assert "weak_calibration" not in d
        assert "monte_carlo" not in d
        assert d["schema"] == 1

    def test_probability_precision_survives(self):
        report = _sample_report(seed=5)
        out = io.StringIO()
        write_report_json(report, out)
        recovered = json.loads(out.getvalue())
        assert recovered["bm_test"]["p_value"] == report.bm.p_value
        assert recovered["bb_test"]["p_unified"] == report.bb.p_unified
        assert recovered["dataset"]["total_variance"] == \
            report.dataset.total_variance

    def test_nonconverged_fit_serializes_without_pvalue(self):
        data = build_dataset([0.2, 0.4, 0.6, 0.8], [0, 0, 0, 0])
        proc = cumulative_process(data)
        stats = walk_statistics(proc)
        report = AnalysisReport(
            dataset=summarize_dataset(data, proc),
            bm=bm_test_from_process(stats),
            bb=bb_test_from_process(stats),
            weak_calibration=weak_calibration_lr_test(data),
        )
        d = report_to_dict(report)
        assert "p_value" not in d["weak_calibration"]


class TestStudyRoundTrip:
    def test_single_cell_roundtrip(self, tmp_path):
        summaries = run_null_study([-1.0], [30], replications=4, seed=9)
        path = tmp_path / "study.json"
        write_study_json(summaries, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["schema"] == 1
        cell = loaded["cells"][0]
        assert cell["scenario"]["seed"] == 9
        assert cell["rejections"] == summaries[0].rejections
        assert cell["pvalues"]["bm"] == list(summaries[0].pvalues["bm"])

    def test_replay_from_echoed_scenario(self, tmp_path):
        summaries = run_null_study([-0.5], [40], replications=6, seed=13)
        path = tmp_path / "study.json"
        write_study_json(summaries, path)
        cell = json.loads(path.read_text(encoding="utf-8"))["cells"][0]
        replayed = _run_study([SimulationScenario(**cell["scenario"])])[0]
        assert replayed == summaries[0]
        np.testing.assert_array_equal(replayed.pvalues["bb"],
                                      summaries[0].pvalues["bb"])

    def test_study_dict_deterministic(self):
        summaries = run_null_study([0.0], [25], replications=3, seed=2)
        d1 = json.dumps(study_to_dict(summaries))
        d2 = json.dumps(study_to_dict(summaries))
        assert d1 == d2


class TestAnalyze:
    def test_matches_single_test_calls(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.1, 0.9, 300)
        data = build_dataset(p, (rng.random(300) < p).astype(float))
        proc, report = analyze(data, mc=200, seed=3)
        stats = walk_statistics(cumulative_process(data))
        assert report.bm == bm_test_from_process(stats)
        assert report.bb == bb_test_from_process(stats)
        assert report.hl == hosmer_lemeshow_test(data)
        assert report.weak_calibration == weak_calibration_lr_test(data)
        assert report.dataset == summarize_dataset(data, proc)
        assert report.monte_carlo == monte_carlo_test(data, 200, 3, stats)

    def test_one_null_draw_serves_both_tests(self, monkeypatch):
        calls = []
        simulate = stattests._simulate_null_statistics

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(stattests, "_simulate_null_statistics", counting)
        data = build_dataset([0.2, 0.4, 0.6, 0.8] * 10, [0, 1, 0, 1] * 10)
        analyze(data, mc=50, seed=1)
        assert calls == [(50, 1)]

    def test_numpy_integer_arguments_write_the_same_report(self,
                                                          monkeypatch):
        monkeypatch.setenv("CALIBWALK_TIMESTAMP", "2024-01-01T00:00:00+00:00")
        data = build_dataset([0.2, 0.4, 0.6, 0.8] * 10, [0, 1, 0, 1] * 10)
        texts = []
        for mc, seed in ((50, 3), (np.int64(50), np.int64(3))):
            _, report = analyze(data, mc=mc, seed=seed)
            assert type(report.monte_carlo.replications) is int
            assert type(report.monte_carlo.seed) is int
            out = io.StringIO()
            write_report_json(report, out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]

    def test_optional_sections_and_validation(self):
        data = build_dataset([0.2, 0.4, 0.6, 0.8] * 10, [0, 1, 0, 1] * 10)
        _, report = analyze(data, groups=50, lr=False)
        assert report.hl is None
        assert report.weak_calibration is None
        assert report.monte_carlo is None
        with pytest.raises(ValueError, match="replications"):
            analyze(data, mc=-1)

    @pytest.mark.parametrize("hl", [True, False])
    @pytest.mark.parametrize("groups", [1, 0, -3])
    def test_too_few_groups_raise_even_without_hl(self, groups, hl):
        data = build_dataset([0.2, 0.4, 0.6, 0.8] * 10, [0, 1, 0, 1] * 10)
        with pytest.raises(ValueError,
                           match=f"need at least 2 groups, got {groups}$"):
            analyze(data, groups=groups, hl=hl)
