"""Fixed-effects pooling, heterogeneity, and plot models."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from replikit import (
    DomainError,
    InsufficientDataError,
    SampleSummary,
    StudySummary,
    cohens_d,
    fixed_effect_pool,
    forest_model,
    funnel_data,
)


def direct(study_id, d, se, label=None):
    return StudySummary(study_id=study_id, label=label or study_id, d=d, se=se)


study_lists = st.lists(
    st.builds(
        direct,
        study_id=st.just("s"),
        d=st.floats(min_value=-3.0, max_value=3.0),
        se=st.floats(min_value=0.05, max_value=2.0),
    ),
    min_size=1,
    max_size=8,
)


# ---------------------------------------------------------------------------
# StudySummary forms
# ---------------------------------------------------------------------------

def test_study_requires_exactly_one_form():
    arm = SampleSummary(10, 1.0, 1.0)
    with pytest.raises(DomainError):
        StudySummary("s", "s", arm1=arm, arm2=arm, d=0.0, se=1.0)
    with pytest.raises(DomainError):
        StudySummary("s", "s", arm1=arm)
    with pytest.raises(DomainError):
        StudySummary("s", "s", d=0.5)
    with pytest.raises(DomainError):
        StudySummary("s", "s")
    with pytest.raises(DomainError):
        StudySummary("s", "s", d=0.5, se=0.0)


@pytest.mark.parametrize("se", [1e-200, 1e200, 2.0**-512, 2.0**512])
def test_direct_se_whose_weight_is_not_finite_and_positive_rejected(se):
    with pytest.raises(DomainError, match="se must be in"):
        direct("s", 0.5, se)


def test_direct_se_at_the_bounds_pools_finitely():
    pooled = fixed_effect_pool([direct("a", 0.5, 2.0**-511), direct("b", 0.5, 2.0**511)])
    assert math.isfinite(pooled.pooled_d) and math.isfinite(pooled.pooled_se)


@pytest.mark.parametrize("n1, n2", [(-5, 0), (30, 1), (1, 30)])
def test_direct_form_arm_sizes_below_two_rejected(n1, n2):
    with pytest.raises(DomainError, match=">= 2"):
        StudySummary("s", "s", d=0.5, se=0.3, n1=n1, n2=n2)


def test_arm_form_effect_matches_effect_module():
    a = SampleSummary(30, 105.0, 20.0)
    b = SampleSummary(30, 100.0, 20.0)
    study = StudySummary("s", "s", arm1=a, arm2=b)
    eff = cohens_d(a, b)
    assert study.effect() == (eff.d, eff.se)


def test_mixed_forms_pool_together():
    a = SampleSummary(30, 105.0, 20.0)
    b = SampleSummary(30, 100.0, 20.0)
    studies = [StudySummary("s1", "s1", arm1=a, arm2=b), direct("s2", 0.25, 0.5)]
    result = fixed_effect_pool(studies)
    assert abs(result.pooled_d - 0.25) < 1e-9


# ---------------------------------------------------------------------------
# fixed_effect_pool
# ---------------------------------------------------------------------------

def test_identity_pooling():
    result = fixed_effect_pool([direct("s1", 0.7, 0.3)])
    assert math.isclose(result.pooled_d, 0.7, rel_tol=1e-12)
    assert math.isclose(result.pooled_se, 0.3, rel_tol=1e-12)
    assert result.q_statistic == 0.0
    assert result.i_squared == 0.0


def test_two_equal_studies_closed_form():
    result = fixed_effect_pool([direct("s1", 1.0, 0.5), direct("s2", 1.0, 0.5)])
    assert math.isclose(result.pooled_d, 1.0, rel_tol=1e-12)
    assert math.isclose(result.pooled_se, math.sqrt(1.0 / 8.0), rel_tol=1e-12)
    assert result.q_statistic < 1e-12
    assert result.i_squared == 0.0


def test_equal_weights_reduce_to_mean():
    ds = [0.1, 0.4, 0.9, -0.2]
    studies = [direct(f"s{i}", d, 0.25) for i, d in enumerate(ds)]
    result = fixed_effect_pool(studies)
    assert math.isclose(result.pooled_d, sum(ds) / len(ds), rel_tol=1e-12)


def test_precision_gain_and_narrower_ci():
    studies = [direct("s1", 0.3, 0.4), direct("s2", 0.6, 0.25), direct("s3", 0.5, 0.7)]
    result = fixed_effect_pool(studies)
    assert result.pooled_se < min(0.4, 0.25, 0.7)
    z = 1.959964
    for se in (0.4, 0.25, 0.7):
        assert result.ci.width < 2.0 * z * se


def test_pool_rejects_empty_and_bad_level():
    with pytest.raises(InsufficientDataError):
        fixed_effect_pool([])
    with pytest.raises(DomainError):
        fixed_effect_pool([direct("s1", 0.0, 1.0)], level=1.0)


def test_weights_are_inverse_variances():
    result = fixed_effect_pool([direct("s1", 0.0, 0.5), direct("s2", 0.0, 1.0)])
    assert result.weights == (4.0, 1.0)
    assert math.isclose(result.pooled_se, math.sqrt(1.0 / 5.0), rel_tol=1e-12)


def test_weight_scale_invariance_of_pooled_quantities():
    # Scaling every se by 1/sqrt(c) scales all weights by c; the pooled point
    # estimate and the forest marker areas must not move (Q does scale).
    base = [direct("s1", 0.2, 0.3), direct("s2", 0.8, 0.6), direct("s3", 0.5, 0.15)]
    c = 7.0
    scaled = [direct(s.study_id, s.d, s.se / math.sqrt(c)) for s in base]
    r1, r2 = fixed_effect_pool(base), fixed_effect_pool(scaled)
    assert math.isclose(r1.pooled_d, r2.pooled_d, rel_tol=1e-12)
    f1, f2 = forest_model(base, r1), forest_model(scaled, r2)
    for a, b in zip(f1.rows, f2.rows):
        assert math.isclose(a.marker_area, b.marker_area, rel_tol=1e-12)


@given(studies=study_lists)
def test_pooled_d_within_input_range(studies):
    result = fixed_effect_pool(studies)
    ds = [s.d for s in studies]
    assert min(ds) - 1e-9 <= result.pooled_d <= max(ds) + 1e-9
    assert result.q_statistic >= 0.0
    assert 0.0 <= result.i_squared < 1.0
    assert result.pooled_se <= min(s.se for s in studies) + 1e-12


# ---------------------------------------------------------------------------
# heterogeneity
# ---------------------------------------------------------------------------

def test_identical_studies_no_heterogeneity():
    studies = [direct("s1", 0.5, 0.2), direct("s2", 0.5, 0.2)]
    result = fixed_effect_pool(studies)
    q, i2 = result.q_statistic, result.i_squared
    assert q < 1e-12
    assert i2 == 0.0


def test_heterogeneity_hand_case():
    studies = [direct("s1", 0.0, 0.1), direct("s2", 1.0, 0.1)]
    result = fixed_effect_pool(studies)
    q, i2 = result.q_statistic, result.i_squared
    # weights 100 each, pooled 0.5: Q = 100*0.25 + 100*0.25 = 50
    assert math.isclose(q, 50.0, rel_tol=1e-9)
    assert math.isclose(i2, 0.98, rel_tol=1e-9)


def test_equal_studies_any_k_q_zero():
    for k in (2, 3, 7):
        studies = [direct(f"s{i}", 0.3, 0.4) for i in range(k)]
        result = fixed_effect_pool(studies)
        q, i2 = result.q_statistic, result.i_squared
        assert q < 1e-10
        assert i2 == 0.0


# ---------------------------------------------------------------------------
# forest_model / funnel_data
# ---------------------------------------------------------------------------

def test_forest_single_study_rows():
    studies = [direct("s1", 0.7, 0.3)]
    pooled = fixed_effect_pool(studies)
    spec = forest_model(studies, pooled)
    assert len(spec.rows) == 1
    assert spec.rows[0].d == 0.7
    assert math.isclose(spec.pooled_d, 0.7, rel_tol=1e-12)
    assert spec.rows[0].marker_area == 1.0


def test_forest_marker_areas_proportional_to_weights():
    studies = [direct("s1", 0.2, 0.5), direct("s2", 0.4, 1.0)]  # weights 4 : 1
    spec = forest_model(studies, fixed_effect_pool(studies))
    ratio = spec.rows[0].marker_area / spec.rows[1].marker_area
    assert abs(ratio - 4.0) / 4.0 < 0.01


def test_forest_axis_covers_all_cis_with_padding():
    studies = [direct("s1", -1.0, 0.2), direct("s2", 2.0, 0.4)]
    pooled = fixed_effect_pool(studies)
    spec = forest_model(studies, pooled)
    lows = [r.ci.lower for r in spec.rows] + [spec.pooled_ci.lower]
    highs = [r.ci.upper for r in spec.rows] + [spec.pooled_ci.upper]
    assert spec.axis_lo < min(lows)
    assert spec.axis_hi > max(highs)


def test_forest_axis_padded_when_cis_collapse_to_a_point():
    studies = [direct("s", 1.0, 1e-20)]
    spec = forest_model(studies, fixed_effect_pool(studies))
    assert (spec.axis_lo, spec.axis_hi) == (0.5, 1.5)


def test_forest_preserves_input_order():
    studies = [direct("b", 0.1, 0.5), direct("a", 0.9, 0.5)]
    spec = forest_model(studies, fixed_effect_pool(studies))
    assert [r.label for r in spec.rows] == ["b", "a"]


def test_funnel_passthrough():
    data = funnel_data([direct("s1", 1.0, 0.5)])
    assert data.points == ((1.0, 0.5),)
    assert data.pooled_d == 1.0


def test_funnel_order_free_point_multiset():
    studies = [direct("s1", 0.1, 0.3), direct("s2", 0.9, 0.6), direct("s3", -0.4, 0.2)]
    fwd = funnel_data(studies)
    rev = funnel_data(list(reversed(studies)))
    assert sorted(fwd.points) == sorted(rev.points)
    assert math.isclose(fwd.pooled_d, rev.pooled_d, rel_tol=1e-12)


def test_funnel_rejects_empty():
    with pytest.raises(InsufficientDataError):
        funnel_data([])
