"""Effect-size computation, classification, and confidence intervals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replikit import (
    DegenerateSampleError,
    DomainError,
    EffectCategory,
    EffectSize,
    Interval,
    SampleSummary,
    cohens_d,
    confidence_interval,
    standard_error_d,
)
from replikit.effect_size import category_label, classify, hedges_correction
from replikit.simulation import cohens_d_rows

arm_ns = st.integers(min_value=2, max_value=1000)
arm_means = st.floats(min_value=-1e3, max_value=1e3)
arm_sds = st.floats(min_value=0.01, max_value=1e3)

arm_summaries = st.builds(SampleSummary, n=arm_ns, mean=arm_means, sd=arm_sds)


def scaled_down(arm, k):
    return SampleSummary(arm.n, math.ldexp(arm.mean, -k), math.ldexp(arm.sd, -k))


# sds of about 2^-1007 .. 2^-510, whose squares are mostly subnormal or 0
tiny_arm_summaries = st.builds(scaled_down, arm_summaries, st.integers(520, 1000))


# ---------------------------------------------------------------------------
# cohens_d
# ---------------------------------------------------------------------------

def test_d_zero_for_equal_means():
    a = SampleSummary(30, 100.0, 20.0)
    assert cohens_d(a, a).d == 0.0


def test_d_quarter_sd_shift():
    a = SampleSummary(30, 105.0, 20.0)
    b = SampleSummary(30, 100.0, 20.0)
    eff = cohens_d(a, b)
    assert eff.d == 0.25
    assert cohens_d(b, a).d == -0.25


def test_d_degenerate_pooled_sd():
    a = SampleSummary(5, 1.0, 0.0)
    b = SampleSummary(5, 2.0, 0.0)
    with pytest.raises(DegenerateSampleError):
        cohens_d(a, b)


def test_pooled_sd_weighted_by_df():
    a = SampleSummary(11, 1.0, 2.0)
    b = SampleSummary(5, 0.0, 4.0)
    # d = 1 / pooled sd, with pooled variance (10*4 + 4*16) / 14 = 104/14
    assert math.isclose(cohens_d(a, b).d, 1.0 / math.sqrt(104.0 / 14.0), rel_tol=1e-12)


def test_hedges_correction_applied_when_asked():
    a = SampleSummary(10, 12.0, 3.0)
    b = SampleSummary(10, 10.0, 3.0)
    plain = cohens_d(a, b)
    corrected = cohens_d(a, b, hedges=True)
    j = hedges_correction(18)
    assert 0.0 < j < 1.0
    assert math.isclose(corrected.d, j * plain.d, rel_tol=1e-12)
    assert math.isclose(corrected.se, j * plain.se, rel_tol=1e-12)


def test_hedges_correction_below_df_2_rejected():
    with pytest.raises(DomainError, match="df must be >= 2, got 1"):
        hedges_correction(1)


def test_hedges_j_approximation():
    # J ~= 1 - 3/(4*df - 1); at df=18 that is 0.95775
    assert abs(hedges_correction(18) - (1.0 - 3.0 / 71.0)) < 1e-3


# Integer df on a log grid from 2 to 1e300, a quarter decade apart, and
# both sides of the switch to the series.
HEDGES_DFS = sorted({2, 3, 56, 999, 1000, 1001, *(round(10 ** (e / 4)) for e in range(2, 1201))})


def test_hedges_correction_matches_mpmath_from_df_2_to_1e300():
    mpmath = pytest.importorskip("mpmath")
    # The loggamma difference at df 1e300 keeps about 20 digits of 320.
    with mpmath.workdps(320):
        for df in HEDGES_DFS:
            half = mpmath.mpf(df) / 2
            log_ratio = mpmath.loggamma(half) - mpmath.loggamma(half - 0.5)
            exact = mpmath.exp(log_ratio) / mpmath.sqrt(half)
            assert abs(hedges_correction(df) / exact - 1) <= 1e-12, df


@given(a=arm_summaries, b=arm_summaries)
def test_d_antisymmetric(a, b):
    try:
        ab = cohens_d(a, b)
    except DegenerateSampleError:
        return
    ba = cohens_d(b, a)
    assert ab.d == -ba.d
    assert ab.se == ba.se


@given(a=arm_summaries | tiny_arm_summaries, b=arm_summaries | tiny_arm_summaries)
def test_d_rows_bit_identical_to_scalar(a, b):
    d, se = cohens_d_rows(
        np.array([a.mean]), np.array([a.sd]), np.array([b.mean]), np.array([b.sd]), a.n, b.n
    )
    scalar = cohens_d(a, b)
    assert (d.tolist(), se.tolist()) == ([scalar.d], [scalar.se])


def rows(mean1, sd1, mean2, sd2, n=5):
    return cohens_d_rows(*(np.array(v, dtype=float) for v in (mean1, sd1, mean2, sd2)), n, n)


def test_d_exact_for_tiny_sds_in_both_paths():
    # squares of the sds below 2^-511 are subnormal or 0; d = mean difference / sd = 1
    sds = [1.0, 2.0**-511, math.nextafter(2.0**-511, 0.0), 1e-160, 1e-165, 1e-300, 5e-324]
    d, se = rows(sds, sds, [0.0] * len(sds), sds, n=30)
    scalar = [cohens_d(SampleSummary(30, sd, sd), SampleSummary(30, 0.0, sd)) for sd in sds]
    assert (d.tolist(), se.tolist()) == ([e.d for e in scalar], [e.se for e in scalar])
    assert all(abs(x - 1.0) <= 1e-15 for x in d.tolist())


def test_d_rows_reject_zero_pooled_sd_in_any_row():
    with pytest.raises(DegenerateSampleError):
        rows([1.0, 1.0], [1.0, 0.0], [0.0, 2.0], [1.0, 0.0])


@pytest.mark.parametrize(
    "mean1, sd1",
    [([0.0, math.inf], [1.0, 1.0]), ([0.0, math.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.inf])],
)
def test_d_rows_reject_non_finite_summaries(mean1, sd1):
    with pytest.raises(DomainError, match="mean and sd"):
        rows(mean1, sd1, [0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("sd1", [1e154, 1e200, 1.7e308])
def test_non_finite_pooled_sd_rejected_alike_by_scalar_and_row_paths(sd1):
    arm1, arm2 = SampleSummary(30, 1.0, sd1), SampleSummary(30, 0.0, 1.0)
    message = "pooled standard deviation is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message) as scalar:
            cohens_d(arm1, arm2)
        with pytest.raises(DomainError, match=message) as batch:
            rows([1.0], [sd1], [0.0], [1.0], n=30)
    assert str(batch.value) == str(scalar.value)


def test_d_rows_reject_overflowing_d():
    with pytest.raises(DomainError, match="d must be finite, got inf"), np.errstate(over="ignore"):
        rows([0.0, 1e308], [1.0, 1e-10], [0.0, -1e308], [1.0, 1e-10])


special_means = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e160])
special_sds = st.one_of(
    st.sampled_from([0.0, math.nan, math.inf, 1e-10, 1e154, 1.5e154, 1e200, 2.0**-511,
                     math.nextafter(2.0**-511, 0.0), math.nextafter(2.0**-511, 1.0)]),
    st.floats(min_value=1e153, max_value=1e155),
    st.floats(min_value=2.0**-520, max_value=2.0**-500),
)
clean_rows = st.tuples(arm_means, arm_sds, arm_means, arm_sds)
mixed_rows = st.tuples(
    arm_means | special_means, arm_sds | special_sds, arm_means | special_means, arm_sds | special_sds
) | st.tuples(arm_means, st.just(0.0), arm_means, st.just(0.0))


def scalar_outcome(n1, n2, row):
    """(d, se) of ``cohens_d`` on one row, or the class and message it raises."""
    try:
        effect = cohens_d(SampleSummary(n1, row[0], row[1]), SampleSummary(n2, row[2], row[3]))
    except DomainError as exc:
        return type(exc), str(exc)
    return effect.d, effect.se


@settings(max_examples=300)
@given(
    n1=arm_ns, n2=arm_ns,
    row_list=st.lists(clean_rows, min_size=1, max_size=6)
    | st.lists(clean_rows | mixed_rows, min_size=1, max_size=6),
)
def test_d_rows_raise_what_the_scalar_path_raises_on_the_first_bad_row(n1, n2, row_list):
    want = [scalar_outcome(n1, n2, row) for row in row_list]
    errors = [w for w in want if isinstance(w[0], type)]
    columns = (np.array(column, dtype=float) for column in zip(*row_list))
    if errors:
        with pytest.raises(DomainError) as exc:
            cohens_d_rows(*columns, n1, n2)
        assert (type(exc.value), str(exc.value)) == errors[0]
    else:
        d, se = cohens_d_rows(*columns, n1, n2)
        assert list(zip(d.tolist(), se.tolist())) == want


@given(
    n1=arm_ns, n2=arm_ns,
    m2=st.floats(min_value=-100.0, max_value=100.0),
    gap=st.floats(min_value=0.1, max_value=50.0),
    sd1=st.floats(min_value=0.1, max_value=50.0),
    sd2=st.floats(min_value=0.1, max_value=50.0),
    alpha=st.floats(min_value=0.01, max_value=100.0),
    beta=st.floats(min_value=-100.0, max_value=100.0),
)
def test_d_affine_invariant(n1, n2, m2, gap, sd1, sd2, alpha, beta):
    a = SampleSummary(n1, m2 + gap, sd1)
    b = SampleSummary(n2, m2, sd2)
    a2 = SampleSummary(n1, alpha * (m2 + gap) + beta, alpha * sd1)
    b2 = SampleSummary(n2, alpha * m2 + beta, alpha * sd2)
    assert math.isclose(cohens_d(a, b).d, cohens_d(a2, b2).d, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# standard_error_d
# ---------------------------------------------------------------------------

def test_se_null_balanced():
    assert abs(standard_error_d(0.0, 30, 30) - math.sqrt(60.0 / 900.0)) < 1e-4


def test_se_large_effect_small_arms():
    # sqrt(12/36 + 1.43^2/24) = 0.647
    assert abs(standard_error_d(1.43, 6, 6) - 0.647) < 1e-3


def test_se_vanishes_with_n():
    assert standard_error_d(0.0, 10**7, 10**7) < 1e-3


@given(
    d=st.floats(min_value=-3.0, max_value=3.0),
    n1=st.integers(min_value=2, max_value=500),
    n2=st.integers(min_value=2, max_value=500),
)
def test_se_decreases_in_n_increases_in_magnitude(d, n1, n2):
    se = standard_error_d(d, n1, n2)
    assert standard_error_d(d, n1 + 1, n2) < se
    assert standard_error_d(d, n1, n2 + 1) < se
    if abs(d) >= 0.01:
        assert standard_error_d(1.5 * d, n1, n2) > se


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,expected",
    [
        (0.101, EffectCategory.NONE),
        (1.430, EffectCategory.LARGE_POS),
        (0.2, EffectCategory.NONE),
        (-0.2, EffectCategory.NONE),
        (0.5, EffectCategory.SMALL_POS),
        (0.8, EffectCategory.MED_POS),
        (-0.51, EffectCategory.MED_NEG),
        (-0.81, EffectCategory.LARGE_NEG),
        (0.0, EffectCategory.NONE),
    ],
)
def test_classify_boundaries(d, expected):
    assert classify(d) is expected


def test_classify_rejects_non_finite():
    with pytest.raises(DomainError):
        classify(float("nan"))
    with pytest.raises(DomainError):
        classify(float("inf"))


_MIRROR = {
    EffectCategory.LARGE_NEG: EffectCategory.LARGE_POS,
    EffectCategory.MED_NEG: EffectCategory.MED_POS,
    EffectCategory.SMALL_NEG: EffectCategory.SMALL_POS,
    EffectCategory.NONE: EffectCategory.NONE,
    EffectCategory.SMALL_POS: EffectCategory.SMALL_NEG,
    EffectCategory.MED_POS: EffectCategory.MED_NEG,
    EffectCategory.LARGE_POS: EffectCategory.LARGE_NEG,
}


@given(d=st.floats(min_value=-10.0, max_value=10.0))
def test_classify_mirror(d):
    assert classify(-d) is _MIRROR[classify(d)]


def test_category_labels_cover_enum():
    labels = {category_label(c) for c in EffectCategory}
    assert len(labels) == 7
    assert "None" in labels and "Large+" in labels and "Large-" in labels


# ---------------------------------------------------------------------------
# confidence_interval
# ---------------------------------------------------------------------------

def test_ci_example_large_effect():
    eff = EffectSize(d=1.43, se=0.647, n1=6, n2=6)
    ci = confidence_interval(eff, 0.95)
    assert abs(ci.lower - 0.162) < 0.005
    assert abs(ci.upper - 2.698) < 0.005


def test_ci_unit_se():
    eff = EffectSize(d=0.0, se=1.0, n1=30, n2=30)
    ci = confidence_interval(eff, 0.95)
    assert abs(ci.lower + 1.96) < 1e-3
    assert abs(ci.upper - 1.96) < 1e-3


def test_ci_collapses_as_level_vanishes():
    eff = EffectSize(d=0.7, se=0.5, n1=30, n2=30)
    ci = confidence_interval(eff, 1e-9)
    assert ci.width < 1e-8
    assert abs(ci.midpoint - 0.7) < 1e-9


@given(
    d=st.floats(min_value=-5.0, max_value=5.0),
    se=st.floats(min_value=0.001, max_value=10.0),
    level=st.floats(min_value=0.01, max_value=0.999),
)
def test_ci_symmetric_about_d(d, se, level):
    ci = confidence_interval(EffectSize(d=d, se=se, n1=10, n2=10), level)
    assert abs(ci.midpoint - d) <= 1e-12 * max(1.0, abs(d))


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 0.0, 0.95)
    with pytest.raises(DomainError):
        Interval(0.0, 1.0, 1.0)
    i = Interval(-1.0, 1.0, 0.95)
    assert i.contains(1.0) and i.contains(-1.0) and not i.contains(1.0001)


def test_effect_size_validation():
    with pytest.raises(DomainError):
        EffectSize(d=0.0, se=0.0, n1=10, n2=10)
    with pytest.raises(DomainError):
        EffectSize(d=0.0, se=1.0, n1=1, n2=10)
    with pytest.raises(DomainError):
        EffectSize(d=float("nan"), se=1.0, n1=10, n2=10)
