"""Fixed-effects pooling and heterogeneity."""

import math

import numpy as np
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
)
from replikit import meta


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


@pytest.mark.parametrize("n1, n2", [(99, 5), (30, 30), (30, None), (None, 30)])
def test_arm_form_refuses_n1_and_n2(n1, n2):
    # The arms carry their sizes; a separate n1/n2 would not survive a CSV round trip.
    arm1, arm2 = SampleSummary(30, 1.0, 1.0), SampleSummary(30, 0.0, 1.0)
    with pytest.raises(DomainError, match="n1 and n2 go with d and se"):
        StudySummary("s", "s", arm1=arm1, arm2=arm2, n1=n1, n2=n2)


@pytest.mark.parametrize("se", [1e-200, 1e200, 2.0**-512, 2.0**512])
def test_direct_se_whose_weight_is_not_finite_and_positive_rejected(se):
    with pytest.raises(DomainError, match="se must be in"):
        direct("s", 0.5, se)


def test_direct_se_at_the_bounds_pools_finitely():
    pooled = fixed_effect_pool([direct("a", 0.5, 2.0**-511), direct("b", 0.5, 2.0**511)])
    assert math.isfinite(pooled.pooled_d) and math.isfinite(pooled.pooled_se)


@pytest.mark.parametrize(
    "studies",
    [
        # Each squared deviation is finite, but Q's sum of them overflows.
        [direct("a", 0.0, 1.0), direct("b", 0.0, 1.0), direct("c", 2.0e154, 1.0)],
        # w * d overflows, so pooled d is inf.
        [direct("a", 1e308, 2.0**-511)],
        # Each weight is 2^1022, so the weight sum is inf: pooled d would
        # read 0 with se 0, though every study says 0.5.
        [direct(label, 0.5, 2.0**-511) for label in "abcd"],
    ],
)
def test_effects_too_large_to_pool_rejected(studies):
    with pytest.raises(DomainError, match="pooled d, se or Q is not finite"):
        fixed_effect_pool(studies)


def test_q_square_that_float_power_cannot_hold_rejected():
    # Pooled d is 0, so each deviation is 1e200, whose float ``**`` raises.
    with pytest.raises(DomainError, match="the studies are too large to pool$"):
        fixed_effect_pool([direct("a", 1e200, 1.0), direct("b", -1e200, 1.0)])


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_direct_d_that_is_not_finite_rejected(d):
    with pytest.raises(DomainError, match="study 's': d must be finite"):
        StudySummary("s", "s", d=d, se=0.3)


@pytest.mark.parametrize("n1, n2", [(-5, 0), (30, 1), (1, 30)])
def test_direct_form_arm_sizes_below_two_rejected(n1, n2):
    with pytest.raises(DomainError, match=">= 2"):
        StudySummary("s", "s", d=0.5, se=0.3, n1=n1, n2=n2)


def test_arm_form_effect_matches_effect_module():
    a = SampleSummary(30, 105.0, 20.0)
    b = SampleSummary(30, 100.0, 20.0)
    study = StudySummary("s", "s", arm1=a, arm2=b)
    eff = cohens_d(a, b)
    assert fixed_effect_pool([study]).effects == ((eff.d, eff.se),)


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


def test_integer_d_and_se_pool_as_floats():
    (effect,) = fixed_effect_pool([direct("s1", 1, 1)]).effects
    assert effect == (1.0, 1.0) and all(type(x) is float for x in effect)


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
    # estimate must not move (Q does scale).
    base = [direct("s1", 0.2, 0.3), direct("s2", 0.8, 0.6), direct("s3", 0.5, 0.15)]
    c = 7.0
    scaled = [direct(s.study_id, s.d, s.se / math.sqrt(c)) for s in base]
    r1, r2 = fixed_effect_pool(base), fixed_effect_pool(scaled)
    assert math.isclose(r1.pooled_d, r2.pooled_d, rel_tol=1e-12)
    assert all(math.isclose(w2, c * w1, rel_tol=1e-12) for w1, w2 in zip(r1.weights, r2.weights))


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


def test_pooling_sums_left_to_right_whatever_the_builtin_sum(monkeypatch):
    # Python 3.12's sum() compensates float rounding; 3.11's adds left to right.
    # Pooling must give the same bits under either, so stand in math.fsum.
    rng = np.random.default_rng(23)
    ds = rng.uniform(-2.0, 2.0, 20_000).tolist()
    ses = rng.uniform(0.05, 2.0, 20_000).tolist()
    studies = [direct(f"s{i}", d, se) for i, (d, se) in enumerate(zip(ds, ses))]
    plain = fixed_effect_pool(studies)
    ws = [1.0 / (se * se) for se in ses]
    w_total = pooled_num = 0.0
    for d, w in zip(ds, ws):
        w_total += w
        pooled_num += w * d
    assert (plain.pooled_d, plain.pooled_se) == (pooled_num / w_total, math.sqrt(1.0 / w_total))
    assert math.fsum(ws) != w_total  # the compensated sum would move the result
    monkeypatch.setattr(meta, "sum", math.fsum, raising=False)
    compensated = fixed_effect_pool(studies)
    assert (compensated.pooled_d, compensated.pooled_se, compensated.q_statistic) == (
        plain.pooled_d, plain.pooled_se, plain.q_statistic)


# ---------------------------------------------------------------------------
# per-study effects
# ---------------------------------------------------------------------------

def arm_studies(k):
    return [
        StudySummary(f"s{i}", f"s{i}", arm1=SampleSummary(30, 105.0 + i, 20.0),
                     arm2=SampleSummary(30, 100.0, 20.0))
        for i in range(k)
    ]


def test_pooled_effects_and_labels_follow_the_studies():
    studies = arm_studies(2) + [direct("s2", 0.25, 0.5, label="b")]
    pooled = fixed_effect_pool(studies, level=0.9)
    arms = [cohens_d(s.arm1, s.arm2) for s in studies[:2]]
    assert pooled.effects == (*((e.d, e.se) for e in arms), (0.25, 0.5))
    assert pooled.labels == ("s0", "s1", "b")
    assert pooled.ci.level == 0.9
