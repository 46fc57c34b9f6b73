"""Prediction intervals, confirmation checks, and sample-size back-solving."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from replikit import prediction
from replikit import (
    DomainError,
    EffectSize,
    InconsistentIntervalError,
    Interval,
    NoSolutionError,
    ReplicationDesign,
    SimulationConfig,
    back_solve_n,
    confidence_interval,
    confirms,
    pair_replications,
    pairing_stream,
    prediction_interval,
    run_simulation,
    standard_error_d,
    t_quantile,
)


def equal_arm_design(d, n_total_orig, n_total_rep, level=0.95):
    h1, h2 = n_total_orig // 2, n_total_rep // 2
    se = standard_error_d(d, h1, h1)
    orig = EffectSize(d=d, se=se, n1=h1, n2=h1)
    return ReplicationDesign(original=orig, n1_rep=h2, n2_rep=h2, level=level)


def half_width_equal(d, n_total, level=0.95):
    # closed form for two equal-arm studies of the same total size
    se2 = 4.0 / n_total + d * d / (2.0 * n_total)
    return t_quantile((1.0 + level) / 2.0, n_total - 2) * math.sqrt(2.0 * se2)


# ---------------------------------------------------------------------------
# prediction_interval
# ---------------------------------------------------------------------------

def test_pi_reference_negative_effect():
    # back-solved total n = 74 per study reproduces [-0.84, 0.48]
    pi = prediction_interval(equal_arm_design(-0.176, 74, 74))
    assert abs(pi.lower - (-0.84)) < 0.02
    assert abs(pi.upper - 0.48) < 0.02


def test_pi_reference_large_effect():
    # back-solved total n = 24 per study reproduces [0.05, 2.76]
    pi = prediction_interval(equal_arm_design(1.430, 24, 24))
    assert abs(pi.lower - 0.05) < 0.05
    assert abs(pi.upper - 2.76) < 0.05


def test_pi_collapses_with_infinite_information():
    pi = prediction_interval(equal_arm_design(0.0, 10**7, 10**7))
    assert pi.width < 0.01
    assert abs(pi.midpoint) < 1e-9


def test_pi_design_validation():
    orig = EffectSize(d=0.0, se=0.26, n1=30, n2=30)
    with pytest.raises(DomainError):
        ReplicationDesign(original=orig, n1_rep=1, n2_rep=30)
    with pytest.raises(DomainError):
        ReplicationDesign(original=orig, n1_rep=30, n2_rep=30, level=1.0)


@given(
    d=st.floats(min_value=-2.0, max_value=2.0),
    n_orig=st.integers(min_value=4, max_value=1000),
    n_rep=st.integers(min_value=4, max_value=1000),
    level=st.floats(min_value=0.5, max_value=0.995),
)
def test_pi_symmetric_about_original_d(d, n_orig, n_rep, level):
    pi = prediction_interval(equal_arm_design(d, 2 * n_orig, 2 * n_rep, level))
    assert abs(pi.midpoint - d) <= 1e-12 * max(1.0, abs(d))


@given(
    d=st.floats(min_value=-2.0, max_value=2.0),
    n=st.integers(min_value=4, max_value=500),
    level=st.floats(min_value=0.5, max_value=0.99),
)
def test_pi_half_width_shrinks_as_any_arm_grows(d, n, level):
    se = standard_error_d(d, n, n)
    orig = EffectSize(d=d, se=se, n1=n, n2=n)
    base = prediction_interval(ReplicationDesign(orig, n, n, level)).width

    grown_rep = prediction_interval(ReplicationDesign(orig, n + 50, n, level)).width
    assert grown_rep < base

    se_big = standard_error_d(d, n + 50, n)
    orig_big = EffectSize(d=d, se=se_big, n1=n + 50, n2=n)
    grown_orig = prediction_interval(ReplicationDesign(orig_big, n, n, level)).width
    assert grown_orig < base


@settings(max_examples=200)
@given(
    d=st.floats(min_value=-2.0, max_value=2.0),
    n_orig=st.integers(min_value=3, max_value=2000),
    n_rep=st.integers(min_value=2, max_value=2000),
    level=st.floats(min_value=0.5, max_value=0.995),
)
def test_pi_strictly_wider_than_ci(d, n_orig, n_rep, level):
    se = standard_error_d(d, n_orig, n_orig)
    orig = EffectSize(d=d, se=se, n1=n_orig, n2=n_orig)
    pi = prediction_interval(ReplicationDesign(orig, n_rep, n_rep, level))
    ci = confidence_interval(orig, level)
    assert pi.width > ci.width


# ---------------------------------------------------------------------------
# confirms
# ---------------------------------------------------------------------------

def test_confirms_reference_values():
    assert confirms(Interval(-0.84, 0.48, 0.95), 0.122)
    assert confirms(Interval(0.05, 2.76, 0.95), 1.090)
    assert not confirms(Interval(0.05, 2.76, 0.95), -0.5)


def test_confirms_inclusive_endpoints():
    i = Interval(-1.0, 1.0, 0.95)
    assert confirms(i, -1.0) and confirms(i, 1.0)
    assert not confirms(i, 1.0 + 1e-12)


@pytest.mark.parametrize("d_rep", [math.nan, math.inf, -math.inf])
def test_confirms_rejects_non_finite_d_rep(d_rep):
    with pytest.raises(DomainError, match="d_rep must be finite"):
        confirms(Interval(-1.0, 1.0, 0.95), d_rep)


@given(
    lo=st.floats(min_value=-5.0, max_value=0.0),
    hi=st.floats(min_value=0.0, max_value=5.0),
    pad=st.floats(min_value=0.0, max_value=2.0),
    x=st.floats(min_value=-6.0, max_value=6.0),
)
def test_confirms_monotone_in_widening(lo, hi, pad, x):
    if confirms(Interval(lo, hi, 0.95), x):
        assert confirms(Interval(lo - pad, hi + pad, 0.95), x)


# ---------------------------------------------------------------------------
# back_solve_n
# ---------------------------------------------------------------------------

def test_back_solve_reference_small_effect():
    n = back_solve_n(0.101, Interval(-0.33, 0.53, 0.95))
    assert abs(n - 170) <= 10
    assert n == 168


def test_back_solve_reference_negative_effect():
    n = back_solve_n(-0.176, Interval(-0.84, 0.48, 0.95))
    assert abs(n - 70) <= 4
    assert n == 74


def test_back_solve_reference_large_effect():
    assert back_solve_n(1.430, Interval(0.05, 2.76, 0.95)) == 24


def test_back_solve_unit_interval_example():
    # Normal-quantile hand inversion: 1 = 1.96 * sqrt(8/n) gives n = 30.7;
    # the t-based half-width shifts the implied even n up a little.
    z = 1.959964
    assert abs(8.0 * z * z - 30.73) < 0.01
    n = back_solve_n(0.0, Interval(-1.0, 1.0, 0.95))
    assert 30 <= n <= 36
    assert_nearest_even(0.0, Interval(-1.0, 1.0, 0.95), n)


def assert_nearest_even(d, interval, n):
    # no neighboring even n fits the target half-width better
    target = interval.width / 2.0
    err = abs(half_width_equal(d, n, interval.level) - target)
    for m in (n - 2, n + 2):
        if 4 <= m <= 10**7:
            assert err <= abs(half_width_equal(d, m, interval.level) - target), (d, interval, n)


def test_back_solve_nearest_even_for_arbitrary_half_widths():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = float(rng.uniform(-2.0, 2.0))
        half = float(10 ** rng.uniform(-2.5, 0.0))  # all inside the n = 4 .. 1e7 range
        interval = Interval(d - half, d + half, float(rng.uniform(0.5, 0.999)))
        assert_nearest_even(d, interval, back_solve_n(d, interval))


def test_back_solve_near_a_fractional_df_without_a_quantile():
    # t_quantile(0.75, df) does not converge at a fractional df = 614724.72...
    # between these even n; the search asks only for whole df.
    d = -0.8969962700511873
    interval = Interval(-0.8995489080496838, -0.8944436320526908, 0.5)
    n = back_solve_n(d, interval)
    assert n == 614728
    assert_nearest_even(d, interval, n)


def count_t_quantile_calls(monkeypatch):
    """The dfs of every ``t_quantile`` call ``prediction`` makes from here on."""
    calls = []

    def counted(p, df):
        calls.append(df)
        return t_quantile(p, df)

    monkeypatch.setattr(prediction, "t_quantile", counted)
    return calls


PAPER_ROWS = [(0.101, Interval(-0.33, 0.53, 0.95)), (-0.176, Interval(-0.84, 0.48, 0.95)),
              (1.430, Interval(0.05, 2.76, 0.95))]


def test_back_solve_t_quantile_calls(monkeypatch):
    # The series start lands on the answer for every interval that
    # prediction_interval makes from equal arms, so the answer's half-width
    # and one neighbour's bracket the target: two quantiles, all of whole df.
    rng = np.random.default_rng(3)
    grid = [(d, interval, None) for d, interval in PAPER_ROWS]
    for level in (0.8, 0.9, 0.95, 0.99):
        for n in range(10, 801, 2):
            for d in (-1.5, float(rng.uniform(-1.5, 1.5))):
                grid.append((d, prediction_interval(equal_arm_design(d, n, n, level)), n))
    calls = count_t_quantile_calls(monkeypatch)
    for d, interval, n in grid:
        calls.clear()
        got = back_solve_n(d, interval)
        assert len(calls) == 2, (d, interval, calls)
        assert all(df == int(df) for df in calls)
        assert n is None or got == n


def test_back_solve_t_quantile_calls_over_the_equivalence_cases(monkeypatch):
    # 2.30 a back-solve when the search started at the normal-approximation n.
    calls = count_t_quantile_calls(monkeypatch)
    counts = []
    for d, interval in equivalence_cases():
        calls.clear()
        outcome(back_solve_n, d, interval)
        counts.append(len(calls))
    assert np.mean(counts) <= 1.7


def test_back_solve_round_trip_asks_for_at_most_two_quantiles(monkeypatch):
    # The closed-form start is the answer or its neighbour, so the answer's
    # half-width and one neighbour's are the only quantiles asked for.
    rng = np.random.default_rng(29)
    calls = count_t_quantile_calls(monkeypatch)
    for _ in range(2000):
        n = 2 * int(rng.integers(2, 20_001))
        d = float(rng.uniform(-3.0, 3.0))
        interval = prediction_interval(equal_arm_design(d, n, n, float(rng.uniform(0.5, 0.999))))
        calls.clear()
        assert back_solve_n(d, interval) == n, (d, interval)
        assert len(calls) <= 2, (d, interval, calls)


@pytest.mark.parametrize("m", [2, 3, 4_999_999, 5_000_000])
def test_back_solve_round_trip_at_both_ends_of_the_range(m):
    # The target, half of (d + w) - (d - w), carries the rounding of d -/+ w;
    # each candidate is measured the same way, so n = 4 and n = 1e7 come back.
    rng = np.random.default_rng(m)
    for _ in range(400):
        d = float(rng.uniform(-3.0, 3.0))
        level = float(rng.uniform(0.5, 0.999))
        interval = prediction_interval(equal_arm_design(d, 2 * m, 2 * m, level))
        assert back_solve_n(d, interval) == 2 * m, (d, interval)


def equal_arm_half_width(d, m, level):
    se = standard_error_d(d, m, m)
    return prediction._half_width(se, se, 2 * m - 2, level)


def bisect_back_solve(d_orig, interval):
    # Reference: bisection over the whole per-arm range m in [2, 5e6], each
    # half-width w measured as the target is, half the width of d -/+ w.
    target = interval.width / 2.0

    def half_width(m):
        w = equal_arm_half_width(d_orig, m, interval.level)
        return ((d_orig + w) - (d_orig - w)) / 2.0

    lo, hi = 2, 5_000_000
    w_lo = half_width(lo)
    if w_lo < target:
        raise NoSolutionError(f"half-width {target:.4g} exceeds the n={2 * lo} maximum")
    w_hi = half_width(hi)
    if w_hi > target:
        raise NoSolutionError(f"half-width {target:.4g} is below the n={2 * hi} minimum")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        w_mid = half_width(mid)
        if w_mid > target:
            lo, w_lo = mid, w_mid
        else:
            hi, w_hi = mid, w_mid
    return 2 * (lo if w_lo - target <= target - w_hi else hi)


def outcome(solve, d, interval):
    try:
        return solve(d, interval)
    except (DomainError, NoSolutionError) as exc:
        return type(exc), str(exc)


def equivalence_cases():
    rng = np.random.default_rng(17)
    cases = [
        (0.101, Interval(-0.33, 0.53, 0.95)),
        (-0.176, Interval(-0.84, 0.48, 0.95)),
        (1.430, Interval(0.05, 2.76, 0.95)),
        (-0.8969962700511873, Interval(-0.8995489080496838, -0.8944436320526908, 0.5)),
        (math.nan, Interval(-1.0, 1.0, 0.95)),
        (1e200, Interval(0.9e200, 1.1e200, 0.95)),
    ]
    # targets equal to a half-width, ends of the range included: ties resolve alike
    for m in (2, 3, 1000, 4_999_999, 5_000_000):
        half = equal_arm_half_width(0.0, m, 0.95)
        cases.append((0.0, Interval(-half, half, 0.95)))
    # targets just past either end of the range
    for level in (0.5, 0.95, 0.999):
        for d in (0.0, 3.0):
            for m, beyond in ((2, math.inf), (5_000_000, 0.0)):
                half = math.nextafter(equal_arm_half_width(d, m, level), beyond)
                cases.append((d, Interval(d - half, d + half, level)))
    # a level so small that z = t = 0: every half-width is 0
    cases += [(0.0, Interval(-1.0, 1.0, 1e-17)), (0.0, Interval(0.0, 0.0, 1e-17))]
    # the bisection meets a midpoint above the target (5 in 50,000 random
    # inputs do); each of these solves to n = 8
    for d, level, half in ((1.9, 0.998, 5.98), (1.62, 0.999, 6.3), (0.58, 0.996, 4.51),
                           (-0.2, 0.999, 5.29)):
        cases.append((d, Interval(d - half, d + half, level)))
    for _ in range(2000):
        d = float(rng.uniform(-3.0, 3.0))
        # 1e-4 is below every n = 1e7 half-width, 1e2 above every n = 4 one
        half = float(10 ** rng.uniform(-4.0, 2.0))
        cases.append((d, Interval(d - half, d + half, float(rng.uniform(0.5, 0.999)))))
    return cases


def test_back_solve_matches_full_range_bisection():
    cases = equivalence_cases()
    got = [outcome(back_solve_n, d, interval) for d, interval in cases]
    want = [outcome(bisect_back_solve, d, interval) for d, interval in cases]
    assert [c for c, g, w in zip(cases, got, want) if g != w] == []
    assert got[:4] == [168, 74, 24, 614728]
    not_finite = (DomainError, "prediction interval half-width is not finite")
    assert got[4:6] == [not_finite, not_finite]
    # the grid reaches past both ends of the n = 4 .. 1e7 range
    messages = {g[1].split(" the ")[-1] for g in got if isinstance(g, tuple)}
    assert messages >= {"n=4 maximum", "n=10000000 minimum"}
    assert sum(isinstance(g, int) for g in got) > 1000


def test_back_solve_rejects_asymmetric_interval():
    with pytest.raises(InconsistentIntervalError):
        back_solve_n(0.0, Interval(-0.5, 1.0, 0.95))


@pytest.mark.parametrize("d", [5.0, -40.0])
def test_back_solve_rejects_an_interval_without_a_centre(d):
    # (-inf + inf) / 2 is nan; a nan centre must not pass as within 0.05 of d.
    with pytest.raises(InconsistentIntervalError, match="interval center nan"):
        back_solve_n(d, Interval(-math.inf, math.inf, 0.95))


def test_back_solve_unreachable_targets():
    with pytest.raises(NoSolutionError):
        back_solve_n(0.0, Interval(-100.0, 100.0, 0.95))
    with pytest.raises(NoSolutionError):
        back_solve_n(0.0, Interval(-1e-9, 1e-9, 0.95))


@pytest.mark.parametrize(
    "d, interval",
    [(math.nan, Interval(-1.0, 1.0, 0.95)), (1e200, Interval(0.9e200, 1.1e200, 0.95))],
)
def test_back_solve_rejects_an_effect_without_a_finite_half_width(d, interval):
    # A nan d, or |d| above about 1.3e154, has no finite half-width at any n.
    with pytest.raises(DomainError, match="half-width is not finite"):
        back_solve_n(d, interval)


@settings(max_examples=100, deadline=None)
@given(
    d=st.floats(min_value=-2.0, max_value=2.0),
    half_n=st.integers(min_value=4, max_value=1000),
    level=st.sampled_from([0.8, 0.9, 0.95]),
)
def test_back_solve_round_trip(d, half_n, level):
    n = 2 * half_n
    pi = prediction_interval(equal_arm_design(d, n, n, level))
    recovered = back_solve_n(d, pi)
    assert abs(recovered - n) <= 1


def test_back_solve_round_trip_over_seeded_grid():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = float(rng.uniform(-2.0, 2.0))
        n = 2 * int(rng.integers(4, 500))
        pi = prediction_interval(equal_arm_design(d, n, n))
        assert abs(back_solve_n(d, pi) - n) <= 1


# ---------------------------------------------------------------------------
# Coverage: how often the interval holds an independent replication's d
# ---------------------------------------------------------------------------

# The interval takes se_rep at the estimated d, so its coverage is not exactly
# its level; each band is centred on the coverage measured over seeds
# 3001-3020 (60,000 pairs a cell) and reaches 4.89 binomial standard errors of
# 3,000 pairs to each side, a two-sided false-alarm rate of 1e-6. Seeds and
# sizes were fixed before the first run.
COVERAGE_BANDS = {
    0.0: {0.8: (0.763, 0.835), 0.95: (0.933, 0.972), 0.99: (0.983, 1.0)},
    0.2: {0.8: (0.762, 0.835), 0.95: (0.933, 0.972), 0.99: (0.982, 1.0)},
}


@pytest.mark.parametrize("delta, seed", [(0.0, 2201), (0.2, 2202)])
def test_prediction_interval_covers_the_replication_at_its_level(delta, seed):
    # Arms of 30 + 30. pair_replications puts every run in one pair, so the two
    # studies of a pair come from disjoint substreams.
    config = SimulationConfig(runs=6000, n_per_arm=30, true_effect_d=delta, master_seed=seed)
    pairs = pair_replications(run_simulation(config), pairing_stream(config)).tolist()
    for level, (low, high) in COVERAGE_BANDS[delta].items():
        covered = sum(
            confirms(prediction_interval(equal_arm_design(d, 60, 60, level)), d_rep)
            for d, d_rep in pairs
        ) / len(pairs)
        assert low <= covered <= high, (level, covered)


# The paper's claim in numbers: a replication of no effect (delta 0) confirms
# an original of a small effect (delta 0.2) nearly as often as a replication of
# the same effect does. With arms of 30 + 30, d * sqrt(15) is noncentral t with
# df 58 and noncentrality delta * sqrt(15). The 95 % interval from an original
# d is d +/- w(d), w(d) = t_(0.975, 58) * sqrt(2) * se(d), with se(d)^2 =
# 1/15 + d^2/120, so the rate is the integral over d of
# f_orig(d) * [F_rep(d + w(d)) - F_rep(d - w(d))].
# Seeds 2501 (originals) and 2502 (replications), 4,000 pairs and a two-sided
# binomial false-alarm rate of 1e-6 were fixed before the first run. Distinct
# master seeds give disjoint substreams.
def test_a_null_replication_confirms_a_small_original_at_the_predicted_rate():
    df, root_n = 58, math.sqrt(15.0)
    t = stats.t.ppf(0.975, df)

    def confirm_density(d):
        w = t * math.sqrt(2.0 * (1.0 / 15.0 + d * d / 120.0))
        f_orig = root_n * stats.nct.pdf(d * root_n, df, 0.2 * root_n)
        rep = stats.nct.cdf([(d - w) * root_n, (d + w) * root_n], df, 0.0)
        return f_orig * (rep[1] - rep[0])

    expected = integrate.quad(confirm_density, -3.0, 3.5, epsabs=1e-10)[0]
    assert abs(expected - 0.9208) < 5e-4

    def batch(delta, seed):
        config = SimulationConfig(runs=4000, n_per_arm=30, true_effect_d=delta, master_seed=seed)
        return run_simulation(config).d.tolist()

    pairs = zip(batch(0.2, 2501), batch(0.0, 2502))
    confirmed = sum(
        confirms(prediction_interval(equal_arm_design(d, 60, 60)), d_rep) for d, d_rep in pairs
    )
    assert stats.binomtest(confirmed, 4000, expected).pvalue >= 1e-6, (confirmed / 4000, expected)
