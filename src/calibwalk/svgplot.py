"""Deterministic SVG rendering of calibration figures.

Pure string assembly, no plotting framework: identical inputs produce
byte-identical documents.  Every figure is a fixed 720 x 480 pixel canvas.
Coordinates are written with 8 decimals, so a parsed document reproduces
the data-to-pixel transform to well below a millionth of a pixel.

A cumulative plot draws every walk vertex up to 4 vertices per pixel of
canvas width (n + 1 <= 2880).  Above that the walk is M4-decimated
(Jugel et al., VLDB 2014): per pixel column it keeps the first, last,
lowest and highest vertex, plus the origin and the vertex the test's
marker points at, so the line drawn at the panel's resolution is
unchanged.  Kept vertices are written exactly as the full polyline would
write them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CalibrationDataset, CumulativeProcess, _integer
from .distributions import critical_value
from .simulation import POWER_TESTS, pvalue_ecdf, study_figure_names
from .stattests import BBTestResult, BMTestResult, _rank_groups

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 56.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 38.0
_MARGIN_BOTTOM = 46.0

# secondary-axis tick policy: fixed prediction levels, labels dropped when
# they would land closer than this many pixels to the previous label
_PI_TICKS = (0.01, 0.05, 0.1, 0.25, 0.5)
_MIN_LABEL_SPACING = 20.0

_TRIANGLE_BASE_TIME = 0.1

# walks with more vertices than this many per pixel of canvas width are
# drawn M4-decimated
_M4_VERTICES_PER_PX = 4

_WALK_COLOR = "#333333"
_BRIDGE_COLOR = "#9a9a9a"
_MEAN_MARKER_COLOR = "#1f77b4"
_MAX_MARKER_COLOR = "#d62728"
_CRITICAL_COLOR = "#d62728"
_SECONDARY_COLOR = "#ff7f0e"


@dataclass(frozen=True)
class AffineMap:
    """Data-to-pixel transform for one panel."""

    x_scale: float
    x_offset: float
    y_scale: float
    y_offset: float

    def to_px(self, x, y):
        return self.x_offset + self.x_scale * x, self.y_offset + self.y_scale * y


def _fmt(v: float) -> str:
    s = f"{v:.8f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _points_attr(points_px) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points_px)


def _nice_step(span: float) -> float:
    # smallest 10^k * {1, 2, 5} giving at most ~6 ticks across the span
    if span <= 0:
        return 1.0
    raw = span / 5.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if magnitude * mult >= raw:
            return magnitude * mult
    return magnitude * 10.0


def _panel_map(x_range, y_range) -> AffineMap:
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    x_scale = (_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT) / (x_hi - x_lo)
    y_scale = -(_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM) / (y_hi - y_lo)
    return AffineMap(
        x_scale=x_scale,
        x_offset=_MARGIN_LEFT - x_scale * x_lo,
        y_scale=y_scale,
        y_offset=(_HEIGHT - _MARGIN_BOTTOM) - y_scale * y_lo,
    )


class _Document:
    def __init__(self):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" '
            f'fill="#ffffff"/>',
        ]

    def line(self, x1, y1, x2, y2, color, width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def polyline(self, points_px, color, width=1.5):
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" '
            f'points="{_points_attr(points_px)}"/>'
        )

    def polygon(self, points_px, stroke, fill="none"):
        self.parts.append(
            f'<polygon fill="{fill}" stroke="{stroke}" stroke-width="1" '
            f'points="{_points_attr(points_px)}"/>'
        )

    def rect(self, x, y, w, h, stroke, fill="none"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"/>'
        )

    def circle(self, cx, cy, r, color):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{color}"/>'
        )

    def text(self, x, y, content, size=12, anchor="middle", color="#000000"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="Helvetica, Arial, sans-serif" '
            f'font-size="{size}" fill="{color}">{_escape(content)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _framed(x_range, y_range, x_label, y_label, x_tick_values=None):
    """``(doc, amap, (left, top, right, bottom))``: a figure's document and
    map with the frame of its data ranges drawn, and the frame's edges."""
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    amap = _panel_map(x_range, y_range)
    doc = _Document()
    left, top = amap.to_px(x_lo, y_hi)
    right, bottom = amap.to_px(x_hi, y_lo)
    doc.rect(left, top, right - left, bottom - top, "#000000")

    if x_tick_values is None:
        step = _nice_step(x_hi - x_lo)
        k0 = math.ceil(x_lo / step)
        x_tick_values = [k * step for k in range(k0, int(x_hi / step) + 1)]
    for v in x_tick_values:
        px, _ = amap.to_px(v, y_lo)
        doc.line(px, bottom, px, bottom + 5, "#000000")
        doc.text(px, bottom + 18, f"{v:g}", size=11)
    step = _nice_step(y_hi - y_lo)
    k = math.ceil(y_lo / step)
    while k * step <= y_hi + 1e-12:
        v = k * step
        _, py = amap.to_px(x_lo, v)
        doc.line(left - 5, py, left, py, "#000000")
        doc.text(left - 8, py + 4, f"{v:g}", size=11, anchor="end")
        k += 1
    doc.text((left + right) / 2, _HEIGHT - 10, x_label, size=13)
    doc.parts.append(
        f'<text x="14" y="{_fmt((top + bottom) / 2)}" text-anchor="middle" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="13" '
        f'fill="#000000" transform="rotate(-90 14 {_fmt((top + bottom) / 2)})"'
        f'>{_escape(y_label)}</text>'
    )
    return doc, amap, (left, top, right, bottom)


def _draw_secondary_axis(doc, amap, proc, top):
    # map prediction levels to walk time through the cumulative grid
    last_label_x = -math.inf
    for pi in _PI_TICKS:
        idx = int(np.searchsorted(proc.source.predictions, pi, side="right")) - 1
        if idx < 0:
            continue
        t = float(proc.times[idx])
        px, _ = amap.to_px(t, 0.0)
        doc.line(px, top, px, top - 5, "#555555")
        if px - last_label_x >= _MIN_LABEL_SPACING:
            doc.text(px, top - 9, f"{pi:g}", size=10, color="#555555")
            last_label_x = px
    doc.text(_MARGIN_LEFT - 34, top - 9, "pred.", size=10, anchor="start",
             color="#555555")


# per walk test: the distribution of its critical value, its result type,
# and the result's fields holding the statistic and the marked vertex
_WALK_TESTS = {"bm": ("sup_abs_bm", BMTestResult, "s_star", "location"),
               "bb": ("kolmogorov", BBTestResult, "s_n", "location_bridge")}


def _max_abs(walk):
    # max |walk| without a row-length |walk|
    return max(float(walk.max()), -float(walk.min()))


def _cumulative_ranges(proc, end, crit):
    """A cumulative plot's x and y data ranges."""
    # 1.0 keeps the unit triangle's apexes in view
    y_max = 1.1 * max(_max_abs(proc.walk), 1.0, abs(end) + crit)
    return (0.0, 1.0), (-y_max, y_max)


def cumulative_plot_map(proc: CumulativeProcess, mode: str,
                        alpha: float = 0.05) -> AffineMap:
    """The data-to-pixel transform a cumulative plot will use."""
    return _panel_map(*_cumulative_ranges(
        proc, *_cumulative_bound(proc, mode, alpha)))


def _cumulative_bound(proc, mode, alpha):
    """``(end, c)``: the ``mode`` test bounds the walk at ``c`` from the
    chord (0, 0)-(1, end) at level ``alpha``.  The chord is the time axis
    for BM and ends at the terminal value for BB, since the walk minus it
    is the Brownian bridge."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be inside (0, 1), got {alpha!r}")
    if mode not in _WALK_TESTS:
        raise ValueError(f"mode must be 'bm' or 'bb', got {mode!r}")
    if 1.0 - alpha == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small to draw: 1 - alpha "
                         "rounds to 1, where the critical value is infinite")
    end = 0.0 if mode == "bm" else float(proc.walk[-1])
    return end, critical_value(_WALK_TESTS[mode][0], 1.0 - alpha)


def _m4_indices(amap, times, walk, marker):
    """Walk indices M4 keeps: per pixel column the first, last, lowest and
    highest vertex (ties to the first), plus ``marker``, in walk order."""
    # the pixel column of each vertex, floor(x_offset + x_scale * t), in
    # one buffer of the walk's length
    columns = amap.x_scale * times
    columns += amap.x_offset
    np.floor(columns, out=columns)
    starts = np.flatnonzero(columns[1:] != columns[:-1]) + 1
    del columns
    bounds = np.concatenate([[0], starts, [walk.size]])
    kept = [bounds[:-1], bounds[1:] - 1, [marker]]
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        column = walk[lo:hi]
        kept.append([lo + column.argmin(), lo + column.argmax()])
    return np.unique(np.concatenate(kept))


def render_cumulative_plot(proc: CumulativeProcess, mode: str, result,
                           alpha: float = 0.05) -> str:
    """Cumulative calibration plot with one test's annotations.

    ``mode='bm'`` expects a BMTestResult, ``mode='bb'`` a BBTestResult.
    Both draw the walk about a chord from (0, 0) to (1, end): the time axis
    for BM, the chord to the terminal value for BB, which BB also draws
    with a terminal-value marker.  Dashed critical lines at level ``alpha``
    run parallel to the chord, on both sides for BM and on the side of the
    bridged maximum for BB, and a marker joins the chord to the walk's
    marked vertex.  Every plot has the unit triangle and the secondary
    axis of prediction levels.
    """
    end, crit = _cumulative_bound(proc, mode, alpha)
    _, kind, statistic, location = _WALK_TESTS[mode]
    reference = _max_abs(proc.walk) if mode == "bm" else end
    if not (isinstance(result, kind) and math.isclose(
            getattr(result, statistic), reference,
            rel_tol=1e-9, abs_tol=1e-12)
            and 1 <= getattr(result, location).index <= proc.n):
        raise ValueError("result was not computed from this process")

    doc, amap, (left, top, right, bottom) = _framed(
        *_cumulative_ranges(proc, end, crit), "time", "cumulative error",
        x_tick_values=(0.0, 0.25, 0.5, 0.75, 1.0),
    )

    zx0, zy = amap.to_px(0.0, 0.0)
    zx1, _ = amap.to_px(1.0, 0.0)
    doc.line(zx0, zy, zx1, zy, "#bbbbbb")

    doc.polygon(
        [amap.to_px(0.0, 1.0), amap.to_px(0.0, -1.0),
         amap.to_px(_TRIANGLE_BASE_TIME, 0.0)],
        stroke="#888888",
    )

    i = getattr(result, location).index - 1
    t_i, s_i = float(proc.times[i]), float(proc.walk[i])
    sides = ((1.0, -1.0) if mode == "bm"
             else (1.0 if s_i >= t_i * end else -1.0,))
    for side in sides:
        doc.line(*amap.to_px(0.0, side * crit),
                 *amap.to_px(1.0, end + side * crit), _CRITICAL_COLOR,
                 dash="6 4")
    if mode == "bb":
        doc.line(*amap.to_px(0.0, 0.0), *amap.to_px(1.0, end), _BRIDGE_COLOR,
                 width=1.5)
        doc.line(*amap.to_px(1.0, 0.0), *amap.to_px(1.0, end),
                 _MEAN_MARKER_COLOR, width=2.5)
    doc.line(*amap.to_px(t_i, t_i * end), *amap.to_px(t_i, s_i),
             _MAX_MARKER_COLOR, width=2.0)

    if proc.n + 1 > _M4_VERTICES_PER_PX * _WIDTH:
        kept = _m4_indices(amap, proc.times, proc.walk, marker=i)
        times, walk = proc.times[kept], proc.walk[kept]
    else:
        times, walk = proc.times, proc.walk
    points = [amap.to_px(0.0, 0.0)]
    points.extend(amap.to_px(float(t), float(s)) for t, s in zip(times, walk))
    doc.polyline(points, _WALK_COLOR)

    _draw_secondary_axis(doc, amap, proc, top)

    if mode == "bm":
        note = (f"max |walk| = {result.s_star:.4f} at pred. "
                f"{result.location.prediction:.4g} "
                f"(t = {result.location.time:.3f}), p = {result.p_value:.4f}")
    else:
        note = (f"terminal = {result.s_n:.4f} (p = {result.p_a:.4f}), "
                f"bridged max = {result.b_star:.4f} (p = {result.p_b:.4f}), "
                f"unified p = {result.p_unified:.4f}")
    doc.text(left + 6, top + 16, note, size=11, anchor="start")
    return doc.render()


def _binned_points(data, groups):
    groups = _integer("groups", groups)
    if groups < 1 or data.n < groups:
        raise ValueError(f"cannot form {groups} groups from n={data.n}")
    rows = []
    hi_value = 0.0
    for group in _rank_groups(data, groups):
        mean_p = group.mean_prediction
        prop = group.observed / group.size
        half_whisker = math.sqrt(prop * (1.0 - prop) / group.size)
        rows.append((mean_p, prop, half_whisker, group.size))
        hi_value = max(hi_value, mean_p, prop + half_whisker)
    upper = min(1.0, hi_value * 1.08 + 1e-9)
    return rows, (0.0, upper)


def render_binned_calibration_plot(data: CalibrationDataset,
                                   groups: int = 10) -> str:
    """Observed event proportion vs mean prediction per rank group.

    Whiskers are one binomial standard error each side; the identity line
    marks perfect calibration.
    """
    rows, (_, upper) = _binned_points(data, groups)
    doc, amap, _ = _framed((0.0, upper), (0.0, upper),
                           "mean prediction", "observed proportion")
    ix0, iy0 = amap.to_px(0.0, 0.0)
    ix1, iy1 = amap.to_px(upper, upper)
    doc.line(ix0, iy0, ix1, iy1, "#999999", dash="4 4")
    for mean_p, prop, half, _size in rows:
        wx, wy0 = amap.to_px(mean_p, max(0.0, prop - half))
        _, wy1 = amap.to_px(mean_p, min(1.0, prop + half))
        doc.line(wx, wy0, wx, wy1, "#777777")
        cx, cy = amap.to_px(mean_p, prop)
        doc.circle(cx, cy, 3.2, _MEAN_MARKER_COLOR)
    return doc.render()


def render_study_figures(summaries) -> dict:
    """One panel per study cell, keyed by ``study_figure_names``.

    Null-study cells get ECDF panels of their p-value samples with the
    identity reference; power-study cells get one bar per test.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("empty study grid")
    names = study_figure_names(summary.scenario for summary in summaries)
    return {name: (_render_ecdf_panel if summary.scenario.family == "null"
                   else _render_power_panel)(summary)
            for name, summary in zip(names, summaries)}


def _render_ecdf_panel(summary):
    doc, amap, (left, top, right, _) = _framed(
        (0.0, 1.0), (0.0, 1.0), "p-value", "empirical CDF",
        x_tick_values=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    doc.line(*amap.to_px(0.0, 0.0), *amap.to_px(1.0, 1.0), "#aaaaaa",
             dash="4 4")
    colors = {"bm": _MEAN_MARKER_COLOR, "bb": _SECONDARY_COLOR}
    for name in sorted(summary.pvalues):
        grid, values = pvalue_ecdf(summary.pvalues[name])
        points = [amap.to_px(float(g), float(v))
                  for g, v in zip(grid, values)]
        doc.polyline(points, colors[name])
    note = "  ".join(
        f"{name.upper()}: {summary.rejections[name]:.3f}"
        for name in sorted(summary.rejections)
    )
    doc.text(left + 6, top + 16, note, size=11, anchor="start")
    scenario = summary.scenario
    doc.text((left + right) / 2, top - 10,
             f"beta0 = {scenario.beta0:g}, n = {scenario.n}", size=12)
    return doc.render()


_BAR_FILLS = {"lr": "#ffffff", "hl": "#bbbbbb", "bm": "#1f77b4",
              "bb": "#ff7f0e"}


def _render_power_panel(summary):
    doc, amap, (left, top, right, _) = _framed(
        (0.0, float(len(POWER_TESTS))), (0.0, 1.0), "",
        "rejection proportion", x_tick_values=(),
    )
    for i, name in enumerate(POWER_TESTS):
        value = summary.rejections[name]
        x0, y0 = amap.to_px(i + 0.15, 0.0)
        x1, y1 = amap.to_px(i + 0.85, value)
        doc.rect(x0, y1, x1 - x0, y0 - y1, "#000000", fill=_BAR_FILLS[name])
        doc.text((x0 + x1) / 2, y0 + 18, name.upper(), size=11)
        doc.text((x0 + x1) / 2, y1 - 5, f"{value:.3f}", size=10)
    scenario = summary.scenario
    doc.text((left + right) / 2, top - 10,
             f"a = {scenario.a:g}, b = {scenario.b:g}, n = {scenario.n}",
             size=12)
    return doc.render()
