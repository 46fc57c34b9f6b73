"""Deterministic SVG rendering for forest and funnel plots.

All geometry is emitted with fixed 2-decimal coordinates so the same model
always serializes to the same bytes, on every platform.
"""

from __future__ import annotations

import math

from .meta import ForestPlotSpec, FunnelData, axis_range

WIDTH = 720.0
HEIGHT_PER_ROW = 28.0
MARGIN_TOP = 40.0
MARGIN_BOTTOM = 56.0
MARGIN_LEFT = 170.0
MARGIN_RIGHT = 40.0
MAX_MARKER_SIDE = 16.0
N_TICKS = 5

_FG = "#1a1a1a"
_ACCENT = "#2166ac"
_FONT = "font-family=\"Helvetica, Arial, sans-serif\" font-size=\"12\""


def _f(x: float) -> str:
    return f"{x:.2f}"


def x_transform(value: float, axis_lo: float, axis_hi: float) -> float:
    """Map an effect value to an x pixel coordinate on the plot axis."""
    return _x_coords([value], axis_lo, axis_hi)[0]


def _x_coords(values: list[float], axis_lo: float, axis_hi: float) -> list[float]:
    span, width = axis_hi - axis_lo, WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    return [MARGIN_LEFT + (v - axis_lo) / span * width for v in values]


def _axis_ticks(axis_lo: float, axis_hi: float) -> list[float]:
    step = (axis_hi - axis_lo) / (N_TICKS - 1)
    return [axis_lo + i * step for i in range(N_TICKS)]


def _header(height: float) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(WIDTH)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(WIDTH)} {_f(height)}">\n'
        f'<rect x="0" y="0" width="{_f(WIDTH)}" height="{_f(height)}" fill="white"/>\n'
    )


def render_forest_svg(spec: ForestPlotSpec) -> str:
    """Forest plot: one row per study plus a pooled-effect diamond.

    Marker squares scale in area with study weight; the dashed vertical line
    marks the pooled effect.
    """
    rows = spec.rows
    n = len(rows)
    height = MARGIN_TOP + (n + 1) * HEIGHT_PER_ROW + MARGIN_BOTTOM
    lo, hi = spec.axis_lo, spec.axis_hi
    axis_y = MARGIN_TOP + (n + 1) * HEIGHT_PER_ROW + 12.0

    parts = [_header(height)]
    pooled_x = x_transform(spec.pooled_d, lo, hi)
    parts.append(
        f'<line x1="{_f(pooled_x)}" y1="{_f(MARGIN_TOP - 12.0)}" '
        f'x2="{_f(pooled_x)}" y2="{_f(axis_y)}" '
        f'stroke="{_ACCENT}" stroke-dasharray="4 3" stroke-width="1"/>\n'
    )

    label_x = _f(MARGIN_LEFT - 10.0)
    x_lo = _x_coords([row.ci.lower for row in rows], lo, hi)
    x_hi = _x_coords([row.ci.upper for row in rows], lo, hi)
    x_d = _x_coords([row.d for row in rows], lo, hi)
    for i, row in enumerate(rows):
        cy = MARGIN_TOP + i * HEIGHT_PER_ROW + HEIGHT_PER_ROW / 2.0
        side = MAX_MARKER_SIDE * math.sqrt(row.marker_area)
        parts.append(
            f'<text x="{label_x}" y="{cy + 4.0:.2f}" text-anchor="end" '
            f'{_FONT} fill="{_FG}">{_escape(row.label)}</text>\n'
            f'<line x1="{x_lo[i]:.2f}" y1="{cy:.2f}" x2="{x_hi[i]:.2f}" y2="{cy:.2f}" '
            f'stroke="{_FG}" stroke-width="1"/>\n'
            f'<rect x="{x_d[i] - side / 2.0:.2f}" y="{cy - side / 2.0:.2f}" '
            f'width="{side:.2f}" height="{side:.2f}" fill="{_FG}"/>\n'
        )

    # Pooled-effect diamond spanning its confidence interval.
    cy = MARGIN_TOP + n * HEIGHT_PER_ROW + HEIGHT_PER_ROW / 2.0
    dx_lo = x_transform(spec.pooled_ci.lower, lo, hi)
    dx_hi = x_transform(spec.pooled_ci.upper, lo, hi)
    half_h = 7.0
    parts.append(
        f'<text x="{_f(MARGIN_LEFT - 10.0)}" y="{_f(cy + 4.0)}" text-anchor="end" '
        f'{_FONT} font-weight="bold" fill="{_FG}">Pooled</text>\n'
    )
    parts.append(
        f'<polygon points="{_f(dx_lo)},{_f(cy)} {_f(pooled_x)},{_f(cy - half_h)} '
        f'{_f(dx_hi)},{_f(cy)} {_f(pooled_x)},{_f(cy + half_h)}" fill="{_ACCENT}"/>\n'
    )

    parts.append(_axis(axis_y, lo, hi))
    parts.append("</svg>\n")
    return "".join(parts)


def render_funnel_svg(data: FunnelData) -> str:
    """Funnel plot: effect on x, standard error on an inverted y axis."""
    height = 420.0
    plot_top = MARGIN_TOP
    plot_bottom = height - MARGIN_BOTTOM
    ds = [p[0] for p in data.points]
    ses = [p[1] for p in data.points]
    lo, hi = axis_range(min(ds + [data.pooled_d]), max(ds + [data.pooled_d]))
    se_max = max(ses) * 1.05

    def y_of(se: float) -> float:
        # se=0 at the top, increasing downward.
        return plot_top + (se / se_max) * (plot_bottom - plot_top)

    parts = [_header(height)]
    pooled_x = x_transform(data.pooled_d, lo, hi)
    parts.append(
        f'<line x1="{_f(pooled_x)}" y1="{_f(plot_top)}" '
        f'x2="{_f(pooled_x)}" y2="{_f(plot_bottom)}" '
        f'stroke="{_ACCENT}" stroke-dasharray="4 3" stroke-width="1"/>\n'
    )
    for x, se in zip(_x_coords(ds, lo, hi), ses):
        parts.append(
            f'<circle cx="{_f(x)}" cy="{_f(y_of(se))}" r="4" '
            f'fill="none" stroke="{_FG}" stroke-width="1.2"/>\n'
        )
    parts.append(_axis(plot_bottom + 12.0, lo, hi))
    # y axis line with min/max standard-error labels.
    parts.append(
        f'<line x1="{_f(MARGIN_LEFT)}" y1="{_f(plot_top)}" '
        f'x2="{_f(MARGIN_LEFT)}" y2="{_f(plot_bottom)}" stroke="{_FG}" stroke-width="1"/>\n'
    )
    parts.append(
        f'<text x="{_f(MARGIN_LEFT - 8.0)}" y="{_f(plot_top + 4.0)}" text-anchor="end" '
        f'{_FONT} fill="{_FG}">0</text>\n'
    )
    parts.append(
        f'<text x="{_f(MARGIN_LEFT - 8.0)}" y="{_f(plot_bottom + 4.0)}" text-anchor="end" '
        f'{_FONT} fill="{_FG}">{se_max:.3g}</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _axis(axis_y: float, lo: float, hi: float) -> str:
    x_start = x_transform(lo, lo, hi)
    x_end = x_transform(hi, lo, hi)
    parts = [
        f'<line x1="{_f(x_start)}" y1="{_f(axis_y)}" x2="{_f(x_end)}" y2="{_f(axis_y)}" '
        f'stroke="{_FG}" stroke-width="1"/>\n'
    ]
    for tick in _axis_ticks(lo, hi):
        tx = x_transform(tick, lo, hi)
        parts.append(
            f'<line x1="{_f(tx)}" y1="{_f(axis_y)}" x2="{_f(tx)}" y2="{_f(axis_y + 5.0)}" '
            f'stroke="{_FG}" stroke-width="1"/>\n'
        )
        parts.append(
            f'<text x="{_f(tx)}" y="{_f(axis_y + 20.0)}" text-anchor="middle" '
            f'{_FONT} fill="{_FG}">{tick:.3g}</text>\n'
        )
    return "".join(parts)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
