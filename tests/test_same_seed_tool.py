"""The tree comparison of ``tools/same_seed.py``, on small trees."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_seed.py"
_SPEC = importlib.util.spec_from_file_location("same_seed", _TOOL)
same_seed = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_seed)

REPORT = '{"x": NaN, "tool": {"version": "0.2.0"}, "tests": [1, {"p": 0.5}]}'


@pytest.fixture
def trees(tmp_path):
    for side in ("a", "b"):
        run = tmp_path / side / "run"
        run.mkdir(parents=True)
        (run / "plot.svg").write_text('<svg><text>0.25</text></svg>')
        (run / "report.json").write_text(REPORT)
    return tmp_path / "a", tmp_path / "b"


def test_identical_trees_give_no_lines(trees):
    assert same_seed.compare(*trees) == []


def test_changed_svg_byte_gives_its_offset(trees):
    a, b = trees
    (b / "run" / "plot.svg").write_text('<svg><text>0.35</text></svg>')
    assert same_seed.compare(a, b) == [
        f"{a}/run/plot.svg and {b}/run/plot.svg differ at byte 13"]


@pytest.mark.parametrize("report, where", [
    (REPORT.replace('"p": 0.5', '"p": 0.25'), "/tests/1/p"),
    (REPORT.replace("0.2.0", "0.2.1"), "/tool/version"),
    (REPORT.replace("[1, ", "[1, 2, "), "/tests/1"),
    (REPORT.replace("}]}", '}], "extra": 1}'), "/extra"),
    # the same values with other bytes: no key differs
    (REPORT.replace(", ", ","), "byte 10"),
    # not JSON
    (REPORT[:-1], f"byte {len(REPORT) - 1}"),
])
def test_changed_json_gives_its_key_path(trees, report, where):
    a, b = trees
    (b / "run" / "report.json").write_text(report)
    assert same_seed.compare(a, b) == [
        f"{a}/run/report.json and {b}/run/report.json differ at {where}"]


def test_file_in_one_tree_is_named(trees):
    a, b = trees
    (a / "run" / "extra.svg").write_text("<svg/>")
    (b / "run" / "report.json").unlink()
    assert same_seed.compare(a, b) == [f"only in {a}: run/extra.svg",
                                       f"only in {a}: run/report.json"]
    assert same_seed.compare(a / "run", b / "missing") == [
        f"only in {a / 'run'}: {name}"
        for name in ("extra.svg", "plot.svg", "report.json")]
