"""Deterministic SVG rendering of a pooled ``meta.MetaResult`` as a forest or
funnel plot. All plot geometry lives here: per-study intervals, marker sizes
and axis ranges. Coordinates are emitted with fixed 2 decimals, so the same
result always serializes to the same bytes, on every platform."""

from __future__ import annotations

import math

from .errors import DomainError
from .meta import MetaResult
from .stats_core import normal_quantile

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


def _x_coords(values: list[float], axis_lo: float, axis_hi: float) -> list[float]:
    """Map effect values to x pixel coordinates on the plot axis."""
    span, width = axis_hi - axis_lo, WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    return [MARGIN_LEFT + (v - axis_lo) / span * width for v in values]


def _header(height: float, pooled_x: float, line_top: float, line_bottom: float) -> str:
    """The plot's frame: background, then the dashed pooled-effect line."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(WIDTH)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(WIDTH)} {_f(height)}">\n'
        f'<rect x="0" y="0" width="{_f(WIDTH)}" height="{_f(height)}" fill="white"/>\n'
        f'<line x1="{_f(pooled_x)}" y1="{_f(line_top)}" '
        f'x2="{_f(pooled_x)}" y2="{_f(line_bottom)}" '
        f'stroke="{_ACCENT}" stroke-dasharray="4 3" stroke-width="1"/>\n'
    )


def axis_range(lo: float, hi: float) -> tuple[float, float]:
    """Plot axis covering [lo, hi], padded by 5% of its span.

    A point (lo == hi) is padded by 0.5 or 5% of its magnitude, whichever is
    larger, so that the padding is not lost to rounding. Raises DomainError
    when the padded axis is not a finite range of positive width.
    """
    pad = 0.05 * (hi - lo) if hi > lo else max(0.5, 0.05 * abs(hi))
    axis_lo, axis_hi = lo - pad, hi + pad
    if not (math.isfinite(axis_lo) and math.isfinite(axis_hi) and axis_lo < axis_hi):
        raise DomainError(f"cannot plot effects spanning [{lo!r}, {hi!r}] on a finite axis")
    return axis_lo, axis_hi


def render_forest_svg(pooled: MetaResult) -> str:
    """Forest plot: one row per study in input order plus a pooled-effect diamond.

    Each study's interval is d +/- z * sqrt(1/w) at the pooled interval's
    level; marker squares scale in area with study weight. The axis covers
    every interval with 5% padding, and the dashed vertical line marks the
    pooled effect.
    """
    n = len(pooled.effects)
    ds = [d for d, _ in pooled.effects]
    z = normal_quantile((1.0 + pooled.ci.level) / 2.0)
    half_widths = [z * math.sqrt(1.0 / w) for w in pooled.weights]
    lows = [d - h for d, h in zip(ds, half_widths)]
    highs = [d + h for d, h in zip(ds, half_widths)]
    lo, hi = axis_range(min(lows + [pooled.ci.lower]), max(highs + [pooled.ci.upper]))
    w_max = max(pooled.weights)
    height = MARGIN_TOP + (n + 1) * HEIGHT_PER_ROW + MARGIN_BOTTOM
    axis_y = MARGIN_TOP + (n + 1) * HEIGHT_PER_ROW + 12.0

    pooled_x, dx_lo, dx_hi = _x_coords([pooled.pooled_d, pooled.ci.lower, pooled.ci.upper], lo, hi)
    parts = [_header(height, pooled_x, MARGIN_TOP - 12.0, axis_y)]

    # One study's label, interval and marker. "%.2f" gives the bytes of _f;
    # each row's cy and side are formatted once.
    row = (
        f'<text x="{_f(MARGIN_LEFT - 10.0)}" y="%.2f" text-anchor="end" {_FONT} fill="{_FG}">%s'
        f'</text>\n<line x1="%.2f" y1="%s" x2="%.2f" y2="%s" stroke="{_FG}" stroke-width="1"/>\n'
        f'<rect x="%.2f" y="%.2f" width="%s" height="%s" fill="{_FG}"/>\n'
    )
    columns = zip(pooled.labels, pooled.weights, *(_x_coords(v, lo, hi) for v in (lows, highs, ds)))
    for i, (label, w, x_lo, x_hi, x_d) in enumerate(columns):
        cy = MARGIN_TOP + i * HEIGHT_PER_ROW + HEIGHT_PER_ROW / 2.0
        side = MAX_MARKER_SIDE * math.sqrt(w / w_max)
        y, s, h = "%.2f" % cy, "%.2f" % side, side / 2.0
        parts.append(row % (cy + 4.0, _escape(label), x_lo, y, x_hi, y, x_d - h, cy - h, s, s))

    # Pooled-effect diamond spanning its confidence interval.
    cy = MARGIN_TOP + n * HEIGHT_PER_ROW + HEIGHT_PER_ROW / 2.0
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


def render_funnel_svg(pooled: MetaResult) -> str:
    """Funnel plot: one point per study, effect on x and standard error on an
    inverted y axis (smaller se, higher precision, sits higher), with the
    pooled d as the dashed reference line."""
    height = 420.0
    plot_top = MARGIN_TOP
    plot_bottom = height - MARGIN_BOTTOM
    ds = [d for d, _ in pooled.effects]
    ses = [se for _, se in pooled.effects]
    lo, hi = axis_range(min(ds + [pooled.pooled_d]), max(ds + [pooled.pooled_d]))
    se_max = max(ses) * 1.05

    parts = [_header(height, _x_coords([pooled.pooled_d], lo, hi)[0], plot_top, plot_bottom)]
    circle = f'<circle cx="%.2f" cy="%.2f" r="4" fill="none" stroke="{_FG}" stroke-width="1.2"/>\n'
    xs, span = _x_coords(ds, lo, hi), plot_bottom - plot_top  # se = 0 at the top, growing down
    parts += [circle % (x, plot_top + (se / se_max) * span) for x, se in zip(xs, ses)]
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
    x_start, x_end = _x_coords([lo, hi], lo, hi)
    parts = [
        f'<line x1="{_f(x_start)}" y1="{_f(axis_y)}" x2="{_f(x_end)}" y2="{_f(axis_y)}" '
        f'stroke="{_FG}" stroke-width="1"/>\n'
    ]
    step = (hi - lo) / (N_TICKS - 1)
    ticks = [lo + i * step for i in range(N_TICKS)]
    for tick, tx in zip(ticks, _x_coords(ticks, lo, hi)):
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
