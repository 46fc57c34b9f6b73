"""SVG rendering from a pooled result: well-formedness, geometry, and byte
determinism."""

import math
import xml.etree.ElementTree as ET
from statistics import NormalDist

import pytest

from replikit import DomainError, SampleSummary, StudySummary, fixed_effect_pool, meta
from replikit.svg import (
    HEIGHT_PER_ROW,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    MAX_MARKER_SIDE,
    WIDTH,
    axis_range,
    render_forest_svg,
    render_funnel_svg,
    _x_coords,
)

PLOT_WIDTH = WIDTH - MARGIN_LEFT - MARGIN_RIGHT


def direct(study_id, d, se):
    return StudySummary(study_id, study_id, d=d, se=se)


def two_studies():
    return [
        StudySummary("s1", "first", d=1.43, se=0.63198),
        StudySummary("s2", "second", d=1.09, se=0.26241),
    ]


def arm_studies(k):
    return [
        StudySummary(f"s{i}", f"s{i}", arm1=SampleSummary(30, 105.0 + i, 20.0),
                     arm2=SampleSummary(30, 100.0, 20.0))
        for i in range(k)
    ]


def forest(studies):
    return render_forest_svg(fixed_effect_pool(studies))


def funnel(studies):
    return render_funnel_svg(fixed_effect_pool(studies))


def elements(svg_text, local_name):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith("}" + local_name)]


def invert_x(x_pixel, axis_lo, axis_hi):
    frac = (x_pixel - MARGIN_LEFT) / PLOT_WIDTH
    return axis_lo + frac * (axis_hi - axis_lo)


def markers(svg_text):
    return [r for r in elements(svg_text, "rect") if r.get("fill") == "#1a1a1a"]


def ci_lines(svg_text):
    """The study rows' interval lines, in row order (horizontal, solid, above the axis)."""
    lines = [l for l in elements(svg_text, "line") if not l.get("stroke-dasharray")]
    return [l for l in lines if l.get("y1") == l.get("y2")][:-1]


def diamond_xs(svg_text):
    """x of the pooled diamond's points: lower end, pooled d, upper end, pooled d."""
    (diamond,) = elements(svg_text, "polygon")
    return [float(p.split(",")[0]) for p in diamond.get("points").split()]


def forest_axis(pooled):
    """The forest axis by its definition: every study's d +/- z*se and the pooled
    interval, padded by 5%."""
    z = NormalDist().inv_cdf((1.0 + pooled.ci.level) / 2.0)
    lows = [d - z * se for d, se in pooled.effects] + [pooled.ci.lower]
    highs = [d + z * se for d, se in pooled.effects] + [pooled.ci.upper]
    return axis_range(min(lows), max(highs))


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------

def test_forest_svg_is_well_formed_xml():
    svg = forest(two_studies())
    root = ET.fromstring(svg)
    assert root.tag.endswith("}svg")
    assert svg.startswith("<svg xmlns=")
    assert svg.endswith("</svg>\n")


def test_forest_single_study_structure():
    svg = forest([StudySummary("s1", "only", d=0.7, se=0.3)])
    (marker,) = markers(svg)
    assert float(marker.get("width")) == MAX_MARKER_SIDE  # the heaviest study
    dashed = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    assert len(dashed) == 1
    assert len(elements(svg, "polygon")) == 1
    labels = [t.text for t in elements(svg, "text")]
    assert "only" in labels and "Pooled" in labels


def test_forest_pooled_line_position():
    pooled = fixed_effect_pool(two_studies())
    svg = render_forest_svg(pooled)
    (dashed,) = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    recovered = invert_x(float(dashed.get("x1")), *forest_axis(pooled))
    assert abs(recovered - pooled.pooled_d) < 0.01
    assert abs(pooled.pooled_d - 1.14) < 0.01
    assert dashed.get("x1") == dashed.get("x2")  # vertical


def test_forest_marker_sides_follow_sqrt_of_area():
    svg = forest([direct("s1", 0.2, 0.5), direct("s2", 0.4, 1.0)])  # weights 4 : 1
    first, second = (float(r.get("width")) for r in markers(svg))
    assert math.isclose(first, MAX_MARKER_SIDE, abs_tol=0.01)
    assert math.isclose(first / second, 2.0, rel_tol=0.01)
    assert math.isclose((first / second) ** 2, 4.0, rel_tol=0.01)  # areas follow weights


def test_forest_marker_sides_do_not_move_when_every_weight_scales():
    # Scaling every se by 1/sqrt(c) scales all weights by c.
    base = [direct("s1", 0.2, 0.3), direct("s2", 0.8, 0.6), direct("s3", 0.5, 0.15)]
    scaled = [direct(s.study_id, s.d, s.se / math.sqrt(7.0)) for s in base]
    sides = [[r.get("width") for r in markers(forest(studies))] for studies in (base, scaled)]
    assert sides[0] == sides[1]


def test_forest_marker_centered_on_effect():
    pooled = fixed_effect_pool(two_studies())
    first = markers(render_forest_svg(pooled))[0]
    center_x = float(first.get("x")) + float(first.get("width")) / 2.0
    assert abs(invert_x(center_x, *forest_axis(pooled)) - 1.43) < 0.01


def test_forest_axis_covers_all_cis_with_padding():
    svg = forest([direct("s1", -1.0, 0.2), direct("s2", 2.0, 0.4)])
    xs = [float(l.get(k)) for l in ci_lines(svg) for k in ("x1", "x2")] + diamond_xs(svg)
    # The intervals span 1/1.1 of the axis, with 5% of their span on each side.
    pad = PLOT_WIDTH * 0.05 / 1.1
    assert math.isclose(min(xs), MARGIN_LEFT + pad, abs_tol=0.01)
    assert math.isclose(max(xs), WIDTH - MARGIN_RIGHT - pad, abs_tol=0.01)


def test_forest_axis_padded_when_cis_collapse_to_a_point():
    svg = forest([direct("s", 1.0, 1e-20)])
    ticks = [t.text for t in elements(svg, "text")][-5:]
    assert ticks == ["0.5", "0.75", "1", "1.25", "1.5"]
    center_x = float(markers(svg)[0].get("x")) + MAX_MARKER_SIDE / 2.0
    assert math.isclose(invert_x(center_x, 0.5, 1.5), 1.0, abs_tol=1e-4)


def test_forest_preserves_input_order():
    svg = forest([direct("b", 0.1, 0.5), direct("a", 0.9, 0.5)])
    assert [t.text for t in elements(svg, "text")][:3] == ["b", "a", "Pooled"]
    first, second = (float(r.get("x")) for r in markers(svg))
    assert first < second


def test_forest_rows_take_the_pooled_effects_at_the_pooled_level():
    studies = arm_studies(2) + [direct("s2", 0.25, 0.5)]
    pooled = fixed_effect_pool(studies, level=0.9)
    svg = render_forest_svg(pooled)
    axis = forest_axis(pooled)
    lower_x, _, upper_x, _ = diamond_xs(svg)
    diamond_half = (upper_x - lower_x) / 2.0
    for line, rect, (d, se) in zip(ci_lines(svg), markers(svg), pooled.effects):
        center_x = float(rect.get("x")) + float(rect.get("width")) / 2.0
        assert abs(invert_x(center_x, *axis) - d) < 0.01
        # The axis scales with z, so only the pooled diamond, drawn at the
        # pooled level, shows the level: at one level the half-widths are
        # in the ratio of the standard errors.
        half = (float(line.get("x2")) - float(line.get("x1"))) / 2.0
        assert math.isclose(half / diamond_half, se / pooled.pooled_se, rel_tol=0.01)


def test_forest_row_count_scales_with_studies():
    for k in (1, 3, 6):
        svg = forest([StudySummary(f"s{i}", f"s{i}", d=0.1 * i, se=0.4) for i in range(k)])
        assert len(markers(svg)) == k
        # k study labels + Pooled + 5 tick labels
        assert len(elements(svg, "text")) == k + 6
        height = MARGIN_TOP + (k + 1) * HEIGHT_PER_ROW + MARGIN_BOTTOM
        assert float(ET.fromstring(svg).get("height")) == height


def test_forest_byte_determinism():
    assert forest(two_studies()) == forest(two_studies())


def test_label_text_is_escaped():
    svg = forest([StudySummary("s1", 'a<b>&"c', d=0.2, se=0.4)])
    assert "&lt;b&gt;&amp;" in svg
    (label,) = [t for t in elements(svg, "text") if t.text and "a" in t.text]
    assert label.text == 'a<b>&"c'


# ---------------------------------------------------------------------------
# funnel
# ---------------------------------------------------------------------------

def test_funnel_svg_is_well_formed_xml():
    assert ET.fromstring(funnel(two_studies())).tag.endswith("}svg")


def test_funnel_byte_determinism():
    assert funnel(two_studies()) == funnel(two_studies())


def test_funnel_structure_and_inverted_axis():
    svg = funnel([direct("a", 0.1, 0.2), direct("b", 0.5, 0.8), direct("c", 0.9, 0.4)])
    circles = elements(svg, "circle")
    assert len(circles) == 3
    dashed = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    assert len(dashed) == 1
    # Smaller standard error sits higher (smaller y) on the inverted axis.
    by_cy = sorted((float(c.get("cy")), i) for i, c in enumerate(circles))
    assert by_cy[0][1] == 0 and by_cy[-1][1] == 1


def test_funnel_single_study_sits_on_the_pooled_line():
    svg = funnel([direct("s1", 1.0, 0.5)])
    (circle,) = elements(svg, "circle")
    (dashed,) = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    assert circle.get("cx") == dashed.get("x1")
    plot_bottom = 420.0 - MARGIN_BOTTOM
    # The se axis runs to 1.05 times the largest se.
    assert math.isclose(float(circle.get("cy")), MARGIN_TOP + (plot_bottom - MARGIN_TOP) / 1.05,
                        abs_tol=0.005)


def test_funnel_points_do_not_depend_on_study_order():
    studies = [direct("s1", 0.1, 0.3), direct("s2", 0.9, 0.6), direct("s3", -0.4, 0.2)]
    fwd, rev = funnel(studies), funnel(list(reversed(studies)))
    assert sorted(ET.tostring(c) for c in elements(fwd, "circle")) == sorted(
        ET.tostring(c) for c in elements(rev, "circle"))
    assert elements(fwd, "line")[0].get("x1") == elements(rev, "line")[0].get("x1")


# ---------------------------------------------------------------------------
# shared geometry
# ---------------------------------------------------------------------------

def test_plots_derive_each_effect_once(monkeypatch):
    calls = []
    d_se = meta._d_se
    monkeypatch.setattr(meta, "_d_se", lambda *arms: calls.append(arms[1]) or d_se(*arms))
    pooled = fixed_effect_pool(arm_studies(3))
    render_forest_svg(pooled)
    render_funnel_svg(pooled)
    assert calls == [105.0, 106.0, 107.0]  # mean1 of s0, s1, s2


@pytest.mark.parametrize("d", [1.0, -2.0**54, 2.0**54, 1e300])
def test_axis_padding_of_a_point_survives_rounding(d):
    # At 2^54 the spacing of doubles is 4: d +/- 0.5 rounds back to d.
    lo, hi = axis_range(d, d)
    assert lo < d < hi


def test_axis_range_rejects_an_axis_that_overflows():
    with pytest.raises(DomainError, match="finite axis"):
        axis_range(1.7976931348623157e308, 1.7976931348623157e308)
    with pytest.raises(DomainError, match="finite axis"):
        axis_range(-1e308, 1e308)


def test_x_coords_is_affine_and_monotone():
    start, end, mid, x2, x3 = _x_coords([0.0, 1.0, 0.5, 0.2, 0.3], 0.0, 1.0)
    assert start == MARGIN_LEFT
    assert end == WIDTH - MARGIN_RIGHT
    assert MARGIN_LEFT < mid < WIDTH - MARGIN_RIGHT
    assert x2 < x3
