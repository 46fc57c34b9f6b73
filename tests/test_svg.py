"""SVG rendering: well-formedness, geometry, and byte determinism."""

import math
import xml.etree.ElementTree as ET

from replikit import StudySummary, fixed_effect_pool
from replikit.meta import forest_model, funnel_data
from replikit.svg import (
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MAX_MARKER_SIDE,
    WIDTH,
    render_forest_svg,
    render_funnel_svg,
    x_transform,
)


def two_studies():
    return [
        StudySummary("s1", "first", d=1.43, se=0.63198),
        StudySummary("s2", "second", d=1.09, se=0.26241),
    ]


def forest_spec(studies):
    return forest_model(studies, fixed_effect_pool(studies))


def elements(svg_text, local_name):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith("}" + local_name)]


def invert_x(x_pixel, axis_lo, axis_hi):
    frac = (x_pixel - MARGIN_LEFT) / (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
    return axis_lo + frac * (axis_hi - axis_lo)


def test_forest_svg_is_well_formed_xml():
    svg = render_forest_svg(forest_spec(two_studies()))
    root = ET.fromstring(svg)
    assert root.tag.endswith("}svg")
    assert svg.startswith("<svg xmlns=")
    assert svg.endswith("</svg>\n")


def test_funnel_svg_is_well_formed_xml():
    svg = render_funnel_svg(funnel_data(two_studies()))
    assert ET.fromstring(svg).tag.endswith("}svg")


def test_forest_single_study_structure():
    studies = [StudySummary("s1", "only", d=0.7, se=0.3)]
    svg = render_forest_svg(forest_spec(studies))
    markers = [r for r in elements(svg, "rect") if r.get("fill") == "#1a1a1a"]
    assert len(markers) == 1
    dashed = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    assert len(dashed) == 1
    assert len(elements(svg, "polygon")) == 1
    labels = [t.text for t in elements(svg, "text")]
    assert "only" in labels and "Pooled" in labels


def test_forest_pooled_line_position():
    spec = forest_spec(two_studies())
    svg = render_forest_svg(spec)
    (dashed,) = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    recovered = invert_x(float(dashed.get("x1")), spec.axis_lo, spec.axis_hi)
    assert abs(recovered - spec.pooled_d) < 0.01
    assert abs(spec.pooled_d - 1.14) < 0.01
    assert dashed.get("x1") == dashed.get("x2")  # vertical


def test_forest_marker_sides_follow_sqrt_of_area():
    studies = [
        StudySummary("s1", "a", d=0.2, se=0.5),  # weight 4
        StudySummary("s2", "b", d=0.4, se=1.0),  # weight 1
    ]
    svg = render_forest_svg(forest_spec(studies))
    markers = [r for r in elements(svg, "rect") if r.get("fill") == "#1a1a1a"]
    sides = sorted(float(r.get("width")) for r in markers)
    assert math.isclose(sides[1], MAX_MARKER_SIDE, abs_tol=0.01)
    assert math.isclose(sides[1] / sides[0], 2.0, rel_tol=0.01)


def test_forest_marker_centered_on_effect():
    studies = two_studies()
    spec = forest_spec(studies)
    svg = render_forest_svg(spec)
    markers = [r for r in elements(svg, "rect") if r.get("fill") == "#1a1a1a"]
    first = markers[0]
    center_x = float(first.get("x")) + float(first.get("width")) / 2.0
    assert abs(invert_x(center_x, spec.axis_lo, spec.axis_hi) - 1.43) < 0.01


def test_forest_row_count_scales_with_studies():
    for k in (1, 3, 6):
        studies = [StudySummary(f"s{i}", f"s{i}", d=0.1 * i, se=0.4) for i in range(k)]
        svg = render_forest_svg(forest_spec(studies))
        markers = [r for r in elements(svg, "rect") if r.get("fill") == "#1a1a1a"]
        assert len(markers) == k
        # k study labels + Pooled + 5 tick labels
        assert len(elements(svg, "text")) == k + 6


def test_forest_byte_determinism():
    a = render_forest_svg(forest_spec(two_studies()))
    b = render_forest_svg(forest_spec(two_studies()))
    assert a == b


def test_funnel_byte_determinism():
    a = render_funnel_svg(funnel_data(two_studies()))
    b = render_funnel_svg(funnel_data(two_studies()))
    assert a == b


def test_funnel_structure_and_inverted_axis():
    studies = [
        StudySummary("s1", "a", d=0.1, se=0.2),
        StudySummary("s2", "b", d=0.5, se=0.8),
        StudySummary("s3", "c", d=0.9, se=0.4),
    ]
    svg = render_funnel_svg(funnel_data(studies))
    circles = elements(svg, "circle")
    assert len(circles) == 3
    dashed = [l for l in elements(svg, "line") if l.get("stroke-dasharray")]
    assert len(dashed) == 1
    # Smaller standard error sits higher (smaller y) on the inverted axis.
    by_cy = sorted((float(c.get("cy")), i) for i, c in enumerate(circles))
    assert by_cy[0][1] == 0 and by_cy[-1][1] == 1


def test_label_text_is_escaped():
    studies = [StudySummary("s1", 'a<b>&"c', d=0.2, se=0.4)]
    svg = render_forest_svg(forest_spec(studies))
    assert "&lt;b&gt;&amp;" in svg
    (label,) = [t for t in elements(svg, "text") if t.text and "a" in t.text]
    assert label.text == 'a<b>&"c'


def test_x_transform_is_affine_and_monotone():
    assert x_transform(0.0, 0.0, 1.0) == MARGIN_LEFT
    assert x_transform(1.0, 0.0, 1.0) == WIDTH - MARGIN_RIGHT
    mid = x_transform(0.5, 0.0, 1.0)
    assert MARGIN_LEFT < mid < WIDTH - MARGIN_RIGHT
    assert x_transform(0.2, 0.0, 1.0) < x_transform(0.3, 0.0, 1.0)
