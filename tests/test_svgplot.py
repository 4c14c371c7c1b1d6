"""Structural checks on the SVG renderers."""

import math
import re
from dataclasses import replace
from xml.dom import minidom

import numpy as np
import pytest

from calibwalk import (
    SimulationScenario,
    analyze,
    build_dataset,
    critical_value,
    render_binned_calibration_plot,
    render_cumulative_plot,
    render_study_figures,
    run_null_study,
    run_power_study,
    walk_statistics,
)
from calibwalk.simulation import _run_study
from calibwalk.stattests import _rank_group_bounds
from calibwalk.svgplot import (
    _BRIDGE_COLOR,
    _CRITICAL_COLOR,
    _M4_VERTICES_PER_PX,
    _MARGIN_TOP,
    _MAX_MARKER_COLOR,
    _WIDTH,
    _binned_points,
    _fmt,
    _panel_map,
    cumulative_plot_map,
)


def _to_data(amap, px, py):
    """The data point that ``amap`` draws at pixel (px, py)."""
    return ((px - amap.x_offset) / amap.x_scale,
            (py - amap.y_offset) / amap.y_scale)


def _binned_plot_map(data, groups):
    """The transform of ``render_binned_calibration_plot``."""
    _, upper = _binned_points(data, groups)[1]
    return _panel_map((0.0, upper), (0.0, upper))


def _dataset(seed=3, n=200, lo=0.05, hi=0.6):
    rng = np.random.default_rng(seed)
    p = np.sort(rng.uniform(lo, hi, n))
    y = (rng.random(n) < p).astype(float)
    return build_dataset(p, y)


def _polyline_points(svg, index=0):
    matches = re.findall(r'<polyline[^>]*points="([^"]+)"', svg)
    return [tuple(float(c) for c in pair.split(","))
            for pair in matches[index].split()]


def _walk_tests(data):
    """The process and its BM and BB results, as ``analyze`` reports them."""
    proc, report = analyze(data, hl=False, lr=False)
    return proc, report.bm, report.bb


def _lines(svg, color):
    out = []
    for attrs in re.findall(r"<line ([^/]+)/>", svg):
        d = dict(re.findall(r'([\w-]+)="([^"]*)"', attrs))
        if d.get("stroke") == color:
            out.append(d)
    return out


@pytest.fixture(scope="module")
def rendered():
    data = _dataset()
    proc, bm, bb = _walk_tests(data)
    return {
        "data": data,
        "proc": proc,
        "bm": bm,
        "bb": bb,
        "svg_bm": render_cumulative_plot(proc, "bm", bm),
        "svg_bb": render_cumulative_plot(proc, "bb", bb),
    }


class TestCumulativePlot:
    def test_well_formed_xml(self, rendered):
        for key in ("svg_bm", "svg_bb"):
            doc = minidom.parseString(rendered[key])
            assert doc.documentElement.tagName == "svg"

    def test_no_external_references(self, rendered):
        for key in ("svg_bm", "svg_bb"):
            assert "href" not in rendered[key]
            assert "url(" not in rendered[key]

    def test_deterministic(self, rendered):
        again = render_cumulative_plot(rendered["proc"], "bm", rendered["bm"])
        assert again == rendered["svg_bm"]

    def test_polyline_vertex_count(self, rendered):
        points = _polyline_points(rendered["svg_bm"])
        assert len(points) == rendered["data"].n + 1

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.2])
    @pytest.mark.parametrize("mode", ["bm", "bb"])
    def test_polyline_matches_transform(self, rendered, mode, alpha):
        proc = rendered["proc"]
        if mode == "bm":
            extent = critical_value("sup_abs_bm", 1.0 - alpha)
        else:
            extent = abs(float(proc.walk[-1])) + critical_value(
                "kolmogorov", 1.0 - alpha)
        # at these levels the critical line, not the walk, sets the extent,
        # which reaches the panel's top edge with a 10% margin
        assert extent > max(float(np.max(np.abs(proc.walk))), 1.0)
        amap = cumulative_plot_map(proc, mode, alpha)
        assert amap.to_px(0.0, 1.1 * extent)[1] == pytest.approx(_MARGIN_TOP)
        svg = render_cumulative_plot(proc, mode, rendered[mode], alpha)
        points = _polyline_points(svg)
        assert points[0] == pytest.approx(amap.to_px(0.0, 0.0), abs=1e-6)
        for (px, py), t, s in zip(points[1:], proc.times, proc.walk):
            ex, ey = amap.to_px(float(t), float(s))
            assert px == pytest.approx(ex, abs=1e-6)
            assert py == pytest.approx(ey, abs=1e-6)

    def test_transform_roundtrip(self, rendered):
        proc = rendered["proc"]
        for mode in ("bm", "bb"):
            amap = cumulative_plot_map(proc, mode)
            for t, s in zip(proc.times, proc.walk):
                px, py = amap.to_px(float(t), float(s))
                back = _to_data(amap, px, py)
                fwd = amap.to_px(*back)
                assert fwd[0] == pytest.approx(px, abs=1e-6)
                assert fwd[1] == pytest.approx(py, abs=1e-6)

    def test_max_marker_hits_walk_extremum(self, rendered):
        # miscalibrated-shaped sample: the marker ordinate must equal the
        # transformed walk maximum to sub-pixel accuracy
        stats = walk_statistics(rendered["proc"])
        amap = cumulative_plot_map(rendered["proc"], "bm")
        markers = [d for d in _lines(rendered["svg_bm"], _MAX_MARKER_COLOR)
                   if d.get("stroke-width") == "2"]
        assert len(markers) == 1
        m = markers[0]
        i = stats.argmax_bm.index - 1
        ex, ey = amap.to_px(float(rendered["proc"].times[i]),
                            float(rendered["proc"].walk[i]))
        assert float(m["x1"]) == pytest.approx(ex, abs=0.5)
        assert float(m["y2"]) == pytest.approx(ey, abs=0.5)

    def test_bb_markers_and_chord(self, rendered):
        svg = rendered["svg_bb"]
        chord = _lines(svg, _BRIDGE_COLOR)
        assert len(chord) == 1
        critical = [d for d in _lines(svg, _CRITICAL_COLOR)
                    if d.get("stroke-dasharray")]
        assert len(critical) == 1
        # critical line is parallel to the chord
        c, k = chord[0], critical[0]
        chord_slope = (float(c["y2"]) - float(c["y1"])) / (
            float(c["x2"]) - float(c["x1"]))
        crit_slope = (float(k["y2"]) - float(k["y1"])) / (
            float(k["x2"]) - float(k["x1"]))
        assert crit_slope == pytest.approx(chord_slope, abs=1e-9)

    def test_bb_degenerate_chord_on_axis(self):
        data = build_dataset([0.5, 0.5], [0, 1])
        proc, _, result = _walk_tests(data)
        assert result.s_n == 0.0
        svg = render_cumulative_plot(proc, "bb", result)
        amap = cumulative_plot_map(proc, "bb")
        _, zero_py = amap.to_px(0.0, 0.0)
        chord = _lines(svg, _BRIDGE_COLOR)[0]
        assert float(chord["y1"]) == pytest.approx(zero_py, abs=1e-6)
        assert float(chord["y2"]) == pytest.approx(zero_py, abs=1e-6)
        # bridged-maximum marker length equals b_star in data units
        marker = [d for d in _lines(svg, _MAX_MARKER_COLOR)
                  if d.get("stroke-width") == "2"][0]
        length_px = abs(float(marker["y2"]) - float(marker["y1"]))
        assert length_px == pytest.approx(
            result.b_star * abs(amap.y_scale), abs=1e-6
        )

    def test_triangle_and_secondary_axis_toggles(self, rendered):
        assert "<polygon" in rendered["svg_bm"]
        assert 'fill="#555555"' in rendered["svg_bm"]  # secondary-axis labels

    def test_mismatched_result_rejected(self, rendered):
        _, other, _ = _walk_tests(_dataset(seed=99))
        with pytest.raises(ValueError, match="not computed from"):
            render_cumulative_plot(rendered["proc"], "bm", other)
        with pytest.raises(ValueError, match="not computed from"):
            render_cumulative_plot(rendered["proc"], "bb", rendered["bm"])

    @pytest.mark.parametrize("mode, field", [("bm", "location"),
                                             ("bb", "location_bridge")])
    def test_location_outside_walk_rejected(self, rendered, mode, field):
        result = rendered[mode]
        for index in (0, -1, rendered["proc"].n + 1):
            moved = replace(result, **{
                field: replace(getattr(result, field), index=index)})
            with pytest.raises(ValueError, match="not computed from"):
                render_cumulative_plot(rendered["proc"], mode, moved)

    def test_unknown_mode(self, rendered):
        with pytest.raises(ValueError, match="mode"):
            render_cumulative_plot(rendered["proc"], "loess", rendered["bm"])

    @staticmethod
    def _dashed_in_data_units(svg, amap):
        """Each dashed critical line as its ((t1, y1), (t2, y2)) ends."""
        return [(_to_data(amap, float(d["x1"]), float(d["y1"])),
                 _to_data(amap, float(d["x2"]), float(d["y2"])))
                for d in _lines(svg, _CRITICAL_COLOR)
                if d.get("stroke-dasharray")]

    def test_bm_critical_lines_horizontal_at_plus_minus_c(self, rendered):
        crit = critical_value("sup_abs_bm", 0.95)
        lines = self._dashed_in_data_units(
            rendered["svg_bm"], cumulative_plot_map(rendered["proc"], "bm"))
        assert len(lines) == 2
        for (t1, y1), (t2, y2) in lines:
            assert (t1, t2) == pytest.approx((0.0, 1.0), abs=1e-6)
            assert y1 == pytest.approx(y2, abs=1e-6)
        assert sorted(y1 for (_, y1), _ in lines) == pytest.approx(
            [-crit, crit], abs=1e-6)

    @pytest.mark.parametrize("shift, side", [(0.2, 1.0), (-0.2, -1.0)],
                             ids=["above", "below"])
    def test_bb_critical_line_c_from_chord_on_bridged_maximum_side(
            self, shift, side):
        # events run ``shift`` off the predictions in the lower half only,
        # so the walk bends away from its chord to that side
        rng = np.random.default_rng(7)
        p = np.sort(rng.uniform(0.25, 0.75, 400))
        y = (rng.random(400) < p + np.where(np.arange(400) < 200, shift, 0.0)
             ).astype(float)
        proc, _, bb = _walk_tests(build_dataset(p, y))
        i = bb.location_bridge.index - 1
        assert np.sign(proc.walk[i] - proc.times[i] * proc.walk[-1]) == side
        crit = critical_value("kolmogorov", 0.95)
        lines = self._dashed_in_data_units(
            render_cumulative_plot(proc, "bb", bb),
            cumulative_plot_map(proc, "bb"))
        assert len(lines) == 1
        (t1, y1), (t2, y2) = lines[0]
        assert (t1, t2) == pytest.approx((0.0, 1.0), abs=1e-6)
        assert (y1, y2) == pytest.approx(
            (side * crit, bb.s_n + side * crit), abs=1e-6)

    @pytest.mark.parametrize("mode", ["bm", "bb"])
    def test_alpha_too_small_to_draw_rejected(self, rendered, mode):
        # 1 - 1e-17 rounds to 1, whose critical value is infinite; 5.6e-17
        # is about the smallest alpha with 1 - alpha below 1
        assert 1.0 - 1e-17 == 1.0 > 1.0 - 5.6e-17
        for call in (lambda alpha: render_cumulative_plot(
                         rendered["proc"], mode, rendered[mode], alpha),
                     lambda alpha: cumulative_plot_map(
                         rendered["proc"], mode, alpha)):
            with pytest.raises(ValueError,
                               match=r"alpha 1e-17 is too small .*1 - alpha "
                                     "rounds to 1"):
                call(1e-17)
            call(5.6e-17)


class TestM4Decimation:
    """Above 4 vertices per pixel of width the walk is drawn M4-decimated."""

    @pytest.fixture(scope="class")
    def large(self):
        # events run 0.1 above the predictions; the bridged maximum then
        # is no extreme of its pixel column and is kept only as a marker
        rng = np.random.default_rng(3)
        p = np.sort(rng.uniform(0.05, 0.6, 20_000))
        y = (rng.random(20_000) < p + 0.1).astype(float)
        return _walk_tests(build_dataset(p, y))

    @pytest.mark.parametrize("mode", ["bm", "bb"])
    def test_envelope_and_marker_match_full_walk(self, large, mode):
        proc, bm, bb = large
        result = bm if mode == "bm" else bb
        marker = (bm.location if mode == "bm" else bb.location_bridge).index
        amap = cumulative_plot_map(proc, mode)
        full = [amap.to_px(0.0, 0.0)] + [
            amap.to_px(float(t), float(s))
            for t, s in zip(proc.times, proc.walk)
        ]
        full_text = [f"{_fmt(x)},{_fmt(y)}" for x, y in full]
        # full[k], k >= 1, is walk vertex k - 1; column[k] is its pixel column
        column = [None] + [
            math.floor(amap.x_offset + amap.x_scale * float(t))
            for t in proc.times
        ]
        svg = render_cumulative_plot(proc, mode, result)
        kept_text = re.findall(r'<polyline[^>]*points="([^"]+)"',
                               svg)[0].split()

        assert proc.n + 1 > 4 * _WIDTH
        assert kept_text[0] == full_text[0]
        assert kept_text[-1] == full_text[-1]
        assert full_text[marker] in kept_text
        assert set(kept_text) <= set(full_text)
        full_by_column = {}
        for k in range(1, len(full)):
            full_by_column.setdefault(column[k], []).append(k)
        assert len(kept_text) <= 4 * len(full_by_column) + 2
        xs = [float(v.split(",")[0]) for v in kept_text]
        assert all(b >= a for a, b in zip(xs, xs[1:]))

        # locate each kept vertex in the full list, in order
        kept_by_column, k = {}, 0
        for text in kept_text[1:]:
            k += 1
            while full_text[k] != text:
                k += 1
            kept_by_column.setdefault(column[k], []).append(k)
        assert kept_by_column.keys() == full_by_column.keys()
        for col, ks in full_by_column.items():
            kept = kept_by_column[col]
            assert (kept[0], kept[-1]) == (ks[0], ks[-1])
            full_y = [full[k][1] for k in ks]
            kept_y = [full[k][1] for k in kept]
            assert min(kept_y) == min(full_y)
            assert max(kept_y) == max(full_y)

    def test_threshold_is_four_vertices_per_pixel(self):
        threshold = _M4_VERTICES_PER_PX * _WIDTH
        for n, vertices in ((threshold - 1, threshold), (threshold, None)):
            proc, bm, _ = _walk_tests(_dataset(seed=5, n=n))
            svg = render_cumulative_plot(proc, "bm", bm)
            count = len(_polyline_points(svg))
            if vertices is None:
                assert count < n + 1
            else:
                assert count == vertices


class TestBinnedPlot:
    def test_perfectly_calibrated_groups_on_identity(self):
        p = [0.1] * 100
        y = ([1] + [0] * 9) * 10
        data = build_dataset(p, y)
        svg = render_binned_calibration_plot(data, groups=10)
        amap = _binned_plot_map(data, 10)
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)
        assert len(circles) == 10
        for cx, cy in circles:
            gx, gy = _to_data(amap, float(cx), float(cy))
            assert gx == pytest.approx(0.1, abs=1e-6)
            assert gy == pytest.approx(0.1, abs=1e-6)

    def test_marker_count_and_whiskers(self):
        data = _dataset(seed=4, n=1000, lo=0.2, hi=0.8)
        svg = render_binned_calibration_plot(data, groups=10)
        amap = _binned_plot_map(data, 10)
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)
        whiskers = _lines(svg, "#777777")
        assert len(circles) == 10
        assert len(whiskers) == 10
        bounds = _rank_group_bounds(data.n, 10)
        for g, ((cx, cy), w) in enumerate(zip(circles, whiskers)):
            lo, hi = bounds[g], bounds[g + 1]
            prop = float(data.outcomes[lo:hi].mean())
            mean_p = float(data.predictions[lo:hi].mean())
            gx, gy = _to_data(amap, float(cx), float(cy))
            assert gx == pytest.approx(mean_p, abs=1e-6)
            assert gy == pytest.approx(prop, abs=1e-6)
            half = math.sqrt(prop * (1 - prop) / (hi - lo))
            length_px = abs(float(w["y2"]) - float(w["y1"]))
            assert length_px == pytest.approx(
                2 * half * abs(amap.y_scale), abs=1e-6
            )

    def test_deterministic(self):
        data = _dataset(seed=5, n=120)
        assert render_binned_calibration_plot(data) == \
            render_binned_calibration_plot(data)

    def test_too_many_groups(self):
        with pytest.raises(ValueError):
            render_binned_calibration_plot(_dataset(n=5, seed=1), groups=10)

    def test_groups_must_be_an_integer(self):
        data = _dataset(seed=5, n=120)
        for groups in (True, 2.5, "10"):
            with pytest.raises(ValueError, match="groups must be an integer"):
                render_binned_calibration_plot(data, groups)
        with pytest.raises(ValueError, match="cannot form 0 groups"):
            render_binned_calibration_plot(data, 0)
        assert render_binned_calibration_plot(data, np.int64(10)) == \
            render_binned_calibration_plot(data, 10)


class TestStudyFigures:
    def test_null_grid_panel_count(self):
        summaries = run_null_study([-2.0, -1.0, 0.0], [20, 30, 40, 50],
                                   replications=3, seed=1)
        panels = render_study_figures(summaries)
        assert len(panels) == 12
        for svg in panels.values():
            minidom.parseString(svg)

    def test_power_panel_has_four_bars(self):
        summaries = run_power_study("logit_linear", [0.0], [1.0], [60],
                                    replications=3, seed=1)
        panels = render_study_figures(summaries)
        assert len(panels) == 1
        svg = next(iter(panels.values()))
        bars = re.findall(
            r'<rect [^/]*fill="(#ffffff|#bbbbbb|#1f77b4|#ff7f0e)" '
            r'stroke="#000000"', svg,
        )
        assert len(bars) == 4

    def test_annotation_matches_rejections(self):
        summaries = run_null_study([-1.0], [40], replications=5, seed=2)
        svg = next(iter(render_study_figures(summaries).values()))
        s = summaries[0]
        assert f"BM: {s.rejections['bm']:.3f}" in svg
        assert f"BB: {s.rejections['bb']:.3f}" in svg

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            render_study_figures([])

    def test_repeated_figure_name_rejected(self):
        # the study runners reject such a grid up front; hand-built
        # summaries meet the same check here
        summaries = [_run_study([SimulationScenario(
            family="null", n=20, replications=2, seed=1, beta0=beta0)])[0]
            for beta0 in (-1.0, -1.0000001)]
        with pytest.raises(ValueError, match="'null_beta0=-1_n=20'"):
            render_study_figures(summaries)


class TestPlotStyle:
    def test_validation(self, rendered):
        with pytest.raises(ValueError, match="alpha"):
            render_cumulative_plot(rendered["proc"], "bm", rendered["bm"],
                                   alpha=0.0)
