"""Numeric substrate tests.

The random streams, draw kernels and ``summarize`` live in
``replikit.simulation`` (they need numpy) and are tested here with the rest
of the substrate. Special functions are checked against two independent routes: scipy
(betainc / t.cdf / t.ppf / norm.ppf) and, for the quantile, a quadrature
plus root-finding oracle built from the textbook density; at large df the
quantile's oracle is an mpmath CDF residual. All frozen
tolerances were set from measured deviations with a 10-100x safety factor.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from replikit import (
    ContaminationSpec,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    NoSolutionError,
    normal_quantile,
    t_quantile,
)
from replikit import stats_core
from replikit.simulation import (
    RandomStream,
    derive_substream,
    draw_contaminated,
    draw_normal,
    draw_rows,
    summarize,
)
from replikit.stats_core import _t_series, regularized_incomplete_beta, t_cdf, t_pdf


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

def test_same_stream_same_sequence():
    s = derive_substream(42, 0)
    a = draw_normal(s.generator(), 0.0, 1.0, 5)
    b = draw_normal(s.generator(), 0.0, 1.0, 5)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = draw_normal(derive_substream(42, 0).generator(), 0.0, 1.0, 1)
    b = draw_normal(derive_substream(42, 1).generator(), 0.0, 1.0, 1)
    assert a[0] != b[0]


def test_derive_substream_is_pure():
    assert derive_substream(42, 7) == derive_substream(42, 7)
    assert derive_substream(42, 7) == RandomStream(42, 7)


def test_substreams_uncorrelated():
    draws = np.array(
        [draw_normal(derive_substream(9, i).generator(), 0.0, 1.0, 1000) for i in range(8)]
    )
    corr = np.corrcoef(draws)
    off_diag = corr[~np.eye(8, dtype=bool)]
    assert np.abs(off_diag).max() < 0.12


def test_stream_validation():
    with pytest.raises(DomainError):
        RandomStream(-1, 0)
    with pytest.raises(DomainError):
        RandomStream(0, -1)
    with pytest.raises(DomainError):
        RandomStream(2**64, 0)


def freshly_keyed(seed, index):
    """A generator on a newly built Philox keyed [seed, index]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("seed, index", [(0, 0), (42, 7), (123, 2**40), (2**64 - 1, 2**64 - 1)])
def test_generator_matches_a_freshly_keyed_philox(seed, index):
    ours, fresh = derive_substream(seed, index).generator(), freshly_keyed(seed, index)
    assert bits(ours.standard_normal(33)) == bits(fresh.standard_normal(33))
    assert bits(ours.random(7)) == bits(fresh.random(7))
    # 32-bit draws go through the bit generator's uint32 buffer.
    assert ours.integers(0, 10, 5, dtype=np.int32).tolist() == fresh.integers(
        0, 10, 5, dtype=np.int32
    ).tolist()


def test_streams_read_no_os_entropy(monkeypatch):
    def refuse(n):
        raise AssertionError("OS entropy read")

    # SeedSequence() gathers entropy through random._urandom.
    monkeypatch.setattr(random, "_urandom", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):
        freshly_keyed(1, 2)
    derive_substream(1, 2).generator().standard_normal(3)
    draw_rows(1, range(3), 4, ContaminationSpec())


@pytest.mark.parametrize(
    "spec",
    [None, ContaminationSpec(0.1, 10.0), ContaminationSpec(0.0, 10.0), ContaminationSpec(1.0, 3.0)],
)
@pytest.mark.parametrize("indices", [range(0, 5), range(2**64 - 3, 2**64), range(40, 10, -7)])
def test_draw_rows_match_the_single_stream_kernels(spec, indices):
    n = 37
    z = draw_rows(9, indices, n, spec)
    assert z.shape == (len(indices), n)
    for row, i in enumerate(indices):
        gen = freshly_keyed(9, i)
        if spec is None:
            expected = draw_normal(gen, 0.0, 1.0, n)
        else:
            expected = draw_contaminated(gen, 0.0, 1.0, spec, n)
        assert bits(z[row]) == bits(expected), i


def test_draw_rows_validate_like_the_kernels():
    assert draw_rows(1, range(0), 3).shape == (0, 3)
    for indices in (range(2**64 - 1, 2**64 + 1), range(-1, 2)):
        with pytest.raises(DomainError):
            draw_rows(1, indices, 3)
    with pytest.raises(DomainError):
        draw_rows(2**64, range(2), 3)
    with pytest.raises(DomainError):
        draw_rows(1, range(2), 0)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_normal_clt_mean():
    x = draw_normal(derive_substream(42, 0).generator(), 100.0, 20.0, 100_000)
    # 4 sigma bound on the sample mean: 4 * 20 / sqrt(1e5) = 0.253
    assert abs(x.mean() - 100.0) < 0.25


def test_sample_normal_standardized_then_scaled():
    s = derive_substream(7, 3)
    scaled = draw_normal(s.generator(), 100.0, 20.0, 64)
    z = draw_normal(s.generator(), 0.0, 1.0, 64)
    assert np.array_equal(scaled, 100.0 + 20.0 * z)


def test_sample_normal_rejects_bad_sigma():
    with pytest.raises(DomainError):
        draw_normal(derive_substream(1, 0).generator(), 0.0, -1.0, 5)
    with pytest.raises(DomainError):
        draw_normal(derive_substream(1, 0).generator(), 0.0, 0.0, 5)


def test_sample_normal_rejects_empty():
    with pytest.raises(DomainError):
        draw_normal(derive_substream(1, 0).generator(), 0.0, 1.0, 0)


def test_contaminated_epsilon_zero_matches_normal_bitwise():
    s = derive_substream(11, 4)
    spec = ContaminationSpec(epsilon=0.0, scale_mult=10.0)
    assert np.array_equal(
        draw_contaminated(s.generator(), 100.0, 20.0, spec, 256),
        draw_normal(s.generator(), 100.0, 20.0, 256),
    )


def test_contaminated_mixture_sd():
    spec = ContaminationSpec(epsilon=0.1, scale_mult=10.0)
    x = draw_contaminated(derive_substream(42, 1).generator(), 100.0, 20.0, spec, 1_000_000)
    # mixture variance: 0.9 * 400 + 0.1 * (10*20)^2 = 4360, sd = 66.03
    assert abs(x.std(ddof=1) - math.sqrt(4360.0)) < 1.0


def test_contaminated_epsilon_one_is_pure_wide_component():
    spec = ContaminationSpec(epsilon=1.0, scale_mult=10.0)
    x = draw_contaminated(derive_substream(42, 2).generator(), 0.0, 20.0, spec, 100_000)
    assert abs(x.std(ddof=1) - 200.0) / 200.0 < 0.02


def test_contamination_spec_validation():
    with pytest.raises(DomainError):
        ContaminationSpec(epsilon=-0.1, scale_mult=10.0)
    with pytest.raises(DomainError):
        ContaminationSpec(epsilon=1.5, scale_mult=10.0)
    with pytest.raises(DomainError):
        ContaminationSpec(epsilon=0.1, scale_mult=1.0)
    for scale_mult in (math.inf, math.nan):
        with pytest.raises(DomainError, match="scale_mult must be finite"):
            ContaminationSpec(epsilon=0.0, scale_mult=scale_mult)


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0])
    assert (s.n, s.mean, s.sd) == (3, 2.0, 1.0)


def test_summarize_constant_sample():
    s = summarize([2.0, 2.0, 2.0])
    assert (s.n, s.mean, s.sd) == (3, 2.0, 0.0)


def test_summarize_rejects_single_observation():
    with pytest.raises(InsufficientDataError):
        summarize([5.0])


def test_summarize_rejects_a_two_dimensional_sample():
    with pytest.raises(DomainError, match="sample must be one-dimensional"):
        summarize([[1.0, 2.0], [3.0, 4.0]])


def test_summarize_permutation_invariant():
    x = draw_normal(derive_substream(3, 0).generator(), 10.0, 2.0, 501)
    a = summarize(x)
    b = summarize(x[::-1].copy())
    assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
    assert math.isclose(a.sd, b.sd, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Regularized incomplete beta / t distribution
# ---------------------------------------------------------------------------

def test_betainc_against_scipy():
    for a in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        for b in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for x in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                mine = regularized_incomplete_beta(a, b, x)
                ref = special.betainc(a, b, x)
                assert abs(mine - ref) < 1e-12, (a, b, x)


@pytest.mark.parametrize("b", [1e3, 3.7e3, 1e4, 5.5e4, 1e5, 1e6, 5e6, 1e7])
def test_betainc_with_the_large_parameter_in_b_matches_mpmath(b):
    # lgamma(a + b) and lgamma(b) are near b*log(b) and cancel, so their
    # difference must come from Stirling's series on b. The points lie below
    # the switch to the complement, x < (a + 1)/(a + b + 2).
    for a in (0.5, 1.0, 1.5, 2.0):
        for x in (0.01 / b, 0.1 / b, 1.0 / b):
            with mpmath.workdps(40):
                exact = mpmath.betainc(a, b, 0, x, regularized=True)
            assert abs(regularized_incomplete_beta(a, b, x) / exact - 1) <= 1e-13, (a, b, x)


def test_betainc_endpoints_and_domain():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_t_cdf_against_scipy():
    for df in (1, 2, 5, 10, 30, 100, 1e5):
        for x in (-8.0, -3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0, 8.0):
            assert abs(t_cdf(x, df) - stats.t.cdf(x, df)) < 1e-10, (x, df)


def test_t_pdf_against_scipy():
    for df in (1, 2, 10, 100):
        for x in (-4.0, -1.0, 0.0, 1.0, 4.0):
            assert abs(t_pdf(x, df) - stats.t.pdf(x, df)) < 1e-12


def test_t_quantile_median_is_zero():
    assert t_quantile(0.5, 7) == 0.0


def test_t_quantile_df1():
    # integration-oracle value: 12.706204736...
    assert abs(t_quantile(0.975, 1) - 12.7062) < 1e-3


def test_t_quantile_normal_limit():
    assert abs(t_quantile(0.975, 1e6) - 1.95996) < 1e-4


def test_t_quantile_against_scipy():
    for df in (1, 2, 3, 5, 10, 30, 100, 1000):
        for p in (0.005, 0.05, 0.25, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995):
            mine = t_quantile(p, df)
            ref = stats.t.ppf(p, df)
            assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref)), (p, df)


@pytest.mark.parametrize(
    "p, df",
    [(0.8311313375438745, 9655758), (0.8553283354954868, 5000000), (0.8388154337544579, 9999998),
     (0.8543014071977832, 2500000), (0.7563413887883188, 1250000),
     (0.7299947834741509, 547962), (0.5230485802352529, 379582)],
)
def test_t_quantile_converges_through_cdf_noise_at_large_df(p, df):
    # The CDF's rounding noise here exceeds 1e-13, and Newton under an
    # absolute 1e-13 stop wandered inside its bracket until the step cap (ConvergenceError).
    # From df 1e4 on the quantile is the series, which has no such noise.
    assert abs(t_quantile(p, df) - stats.t.ppf(p, df)) <= 1e-7 * stats.t.ppf(p, df)


def t_upper_tail(x, df):
    """P(T > x) for x > 0 in mpmath: I_{df/(df+x^2)}(df/2, 1/2) / 2."""
    with mpmath.workdps(40):
        x, df = mpmath.mpf(x), mpmath.mpf(df)
        return float(mpmath.betainc(df / 2, 0.5, 0, df / (df + x * x), regularized=True) / 2)


@pytest.mark.parametrize("df", [2000, 3000, 5000, 1e4, 2e4, 5e4, 1e5, 3e5, 1e6, 3e6, 1e7])
def test_t_cdf_at_large_df_is_as_accurate_as_its_argument(df):
    # Rounding x = df/(df + t^2) moves the tail by about 1.1e-16 * df * (1 + 1/t^2)
    # relative; no t_cdf built on that x does better. The bound is four times
    # it: the worst of 3,000 random points read 1.09 times it, and forming
    # lgamma(df/2 + 1/2) - lgamma(df/2) directly read up to 89 times.
    for t in np.linspace(0.5, 8.0, 16):
        tail = t_upper_tail(t, df)
        bound = 4.0 * (tail * df * 1.1e-16 * (1.0 + 1.0 / (t * t)) + 1.1e-16)
        assert abs(t_cdf(t, df) - (1.0 - tail)) <= bound, t


def t_quantile_rel_error(x, p, df):
    """Relative error of x as the t quantile at p > 1/2: the CDF residual at x
    over density times x, in mpmath. F = 1/2 + I_y(1/2, df/2)/2 with
    y = x^2/(df + x^2) does not cancel near the median, and the working
    precision grows with log10(df), so the log-gamma difference of the
    density stays exact up to df 1e300. scipy's own ``t.ppf`` is not the
    oracle here: near the median it is off by up to 2.8e-11 at df 1e9."""
    with mpmath.workdps(30 + int(math.log10(df))):
        x, df = mpmath.mpf(x), mpmath.mpf(df)
        y = x * x / (df + x * x)
        cdf = 0.5 + mpmath.betainc(0.5, df / 2, 0, y, regularized=True) / 2
        ln_pdf = (mpmath.loggamma((df + 1) / 2) - mpmath.loggamma(df / 2)
                  - mpmath.log(df * mpmath.pi) / 2 - (df + 1) / 2 * mpmath.log1p(x * x / df))
        return float(abs(cdf - mpmath.mpf(p)) / (mpmath.exp(ln_pdf) * x))


# p from 1/2 + 1e-6 to 1 - 1e-12, log-spaced toward both ends.
P_GRID = [0.5 + h for h in np.logspace(-6, math.log10(0.49), 25)] + [
    1.0 - q for q in np.logspace(-2, -12, 25)
]


@pytest.mark.parametrize(
    "df, bound",
    [(30, 1e-3), (100, 3e-6), (300, 2e-8), (1000, 5e-11), (3000, 2e-13),
     (1e4, 1e-15), (1e6, 1e-15), (1e9, 1e-15), (2.0**63, 1e-15), (1e300, 1e-15)],
)
def test_t_series_known_answers(df, bound):
    # The accuracy ``_t_series`` states, for a Newton start to rely on: the
    # four-term truncation error down to df 3000, rounding alone from 1e4 on.
    # z is scipy's norm.ppf, so only the series' own error shows.
    worst = max(t_quantile_rel_error(_t_series(stats.norm.ppf(p), df), p, df) for p in P_GRID)
    assert worst <= bound, worst


@pytest.mark.parametrize(
    "df", [1e4, 3e4, 1e5, 547962, 668984, 1e6, 1e9, 1e13, 1e16, 2.0**63, 1e300]
)
def test_t_quantile_large_df_is_as_accurate_as_the_normal_quantile(df):
    # 547962 and 668984 are where the CDF iteration took 100 steps and was
    # 3.3e-8 off; from df 1e4 on the quantile is the series.
    for p in P_GRID:
        z = stats.norm.ppf(p)
        normal_error = abs(normal_quantile(p) - z) / z
        # d ln t / d ln z = 1 + z^2/(2 df) + ..., so the series scales z's
        # error by about that factor, 1.0025 at df 1e4 and p = 1 - 1e-12;
        # the bound allows twice its first-order term.
        bound = normal_error * (1.0 + z * z / df) + 1e-15
        assert t_quantile_rel_error(t_quantile(p, df), p, df) <= bound, p
    # At the p every default interval uses, it is within 2.3e-16 of scipy too.
    ref = stats.t.ppf(0.975, df)
    assert abs(t_quantile(0.975, df) - ref) <= 2.3e-16 * ref


# p from 1/2 + 1e-12 to 1 - 1e-13, log-spaced toward both ends.
P_GRID_FAR = [0.5 + h for h in np.logspace(-12, math.log10(0.49), 25)] + [
    1.0 - q for q in np.logspace(-2, -13, 25)
]


@pytest.mark.parametrize("df", [1, 2])
def test_t_quantile_closed_forms_at_df_1_and_2(df):
    # Through the CDF, 1 - I/2 cancelled in the tail: at p = 1 - 1e-13 the
    # quantile was 21 % off at df 1 and 7.7 % at df 2.
    for p in P_GRID_FAR:
        x = t_quantile(p, df)
        if df == 1 and p < 0.5 + 1e-6:
            # scipy's t.ppf at df 1 is itself off here: 8e-6 relative at
            # 1/2 + 1e-12 and 4.3e-10 at 1/2 + 1e-7, against mpmath.
            assert t_quantile_rel_error(x, p, df) <= 1e-10, p
        else:
            assert abs(x - stats.t.ppf(p, df)) <= 1e-10 * x, p


# The quantiles the replication workload asks for: df 2m - 2 for m = 5..400
# units per arm, at the levels 0.8, 0.9, 0.95 and 0.99.
REPLICATION_GRID = [(p, 2 * m - 2) for m in range(5, 401) for p in (0.9, 0.95, 0.975, 0.995)]


def test_t_quantile_takes_few_cdf_evaluations_on_the_replication_grid(monkeypatch):
    # Newton from the series start reads 4.92 CDF evaluations a quantile; a
    # doubling bracket and a start at the normal quantile took 9.57.
    calls = 0

    def counting_t_cdf(x, df):
        nonlocal calls
        calls += 1
        return t_cdf(x, df)

    monkeypatch.setattr(stats_core, "t_cdf", counting_t_cdf)
    for p, df in REPLICATION_GRID:
        t_quantile(p, df)
    assert calls / len(REPLICATION_GRID) <= 5.5, calls / len(REPLICATION_GRID)


def test_t_quantile_on_the_replication_grid_is_polished():
    # Every return follows a Newton step below 1e-15 relative. The worst point
    # reads 1.5e-12 (2.3e-12 with the old stop at |F - p| <= 1e-13); a start
    # returned unpolished would read up to 1e-3 at df 8 (test_t_series_known_answers).
    worst = max(t_quantile_rel_error(t_quantile(p, df), p, df) for p, df in REPLICATION_GRID)
    assert worst <= 2e-12, worst


def leading_tail_quantile(p, df):
    """sqrt(df) * (2(1 - p)(df/2) B(df/2, 1/2))^(-1/df) in mpmath: the quantile
    from the leading term of the upper tail, I_y(a, b) ~ y^a / (a B(a, b))."""
    with mpmath.workdps(30):
        df = mpmath.mpf(df)
        base = 2 * (1 - mpmath.mpf(p)) * df / 2 * mpmath.beta(df / 2, 0.5)
        return mpmath.sqrt(df) * base ** (-1 / df)


def test_t_quantile_returns_across_df_unless_its_square_overflows():
    # 60 log-spaced df from 0.05 to 9,999 by P_GRID_FAR. The doubling bracket
    # stopped at 2^200 and raised at 103 of these points. Below df 1 the start
    # is now the leading tail term, and only the 21 points whose quantile
    # squared exceeds the float range raise, all at df below 0.08; t_cdf
    # cannot tell such an x from infinity.
    root_max = math.sqrt(sys.float_info.max)
    for df in np.logspace(math.log10(0.05), math.log10(9999), 60):
        for p in P_GRID_FAR:
            try:
                x = t_quantile(p, df)
            except ConvergenceError as exc:
                assert "overflows" in str(exc), (p, df)
                assert leading_tail_quantile(p, df) > root_max, (p, df)
            else:
                assert 0.0 < x < root_max, (p, df)


def test_t_quantile_at_a_subnormal_df_raises_the_overflow():
    # Formed as log((1 - p) * df * sqrt(pi)), the start's logarithm underflowed
    # to log(0) here and raised ValueError.
    with pytest.raises(ConvergenceError, match="overflows"):
        t_quantile(1 - 1e-13, 1e-315)


@pytest.mark.parametrize(
    "p, df, ref",
    [(1 - 1e-5, 0.05, 1.0876044676991758e93), (1 - 1e-10, 0.5, 1.028490986120881e19),
     (1 - 1e-13, 0.5, 1.0278518457671937e25), (1 - 1e-13, 0.9, 76608849437509.55)],
)
def test_t_quantile_far_tail_below_df_1(p, df, ref):
    # scipy's t.isf. The bracket stopped at 2^200 and raised at the first point,
    # and at 1 - 1e-13 the cancelling CDF left the quantile 8 % off at df 0.5;
    # from the leading tail term, Newton starts within rounding of it.
    assert abs(t_quantile(p, df) - ref) <= 1e-13 * ref


@pytest.mark.parametrize(
    "function, args, message",
    [
        (t_pdf, (0.0, -1), "df must be > 0, got -1"),
        (t_cdf, (1.0, 0), "df must be > 0, got 0"),
        (normal_quantile, (0.0,), "p must be in (0, 1), got 0.0"),
        (normal_quantile, (1.0,), "p must be in (0, 1), got 1.0"),
    ],
)
def test_t_density_cdf_and_normal_quantile_domain(function, args, message):
    with pytest.raises(DomainError) as exc:
        function(*args)
    assert str(exc.value) == message


def test_t_quantile_domain():
    with pytest.raises(DomainError):
        t_quantile(0.0, 5)
    with pytest.raises(DomainError):
        t_quantile(1.0, 5)
    with pytest.raises(DomainError):
        t_quantile(0.5, 0.0)


def test_normal_quantile_against_scipy():
    for p in (1e-10, 1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-6):
        assert abs(normal_quantile(p) - stats.norm.ppf(p)) < 1e-9


def test_quantile_integration_oracle_spot_check():
    # Independent route: quadrature of the textbook density + brentq.
    def pdf(x, df):
        ln_f = (
            math.lgamma((df + 1.0) / 2.0)
            - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi)
            - ((df + 1.0) / 2.0) * math.log1p(x * x / df)
        )
        return math.exp(ln_f)

    def oracle(p, df):
        def cdf(x):
            tail, _ = integrate.quad(pdf, 0.0, x, args=(df,), limit=200)
            return 0.5 + tail

        return optimize.brentq(lambda x: cdf(x) - p, 0.0, 1000.0, xtol=1e-12)

    for p, df in ((0.9, 3), (0.975, 7), (0.995, 2)):
        assert abs(t_quantile(p, df) - oracle(p, df)) < 1e-8


@given(
    p=st.floats(min_value=0.5, max_value=0.995, exclude_min=True),
    df=st.floats(min_value=0.5, max_value=1000.0),
)
def test_t_quantile_antisymmetry(p, df):
    assert t_quantile(1.0 - p, df) == -t_quantile(p, df)


@given(
    p1=st.floats(min_value=0.01, max_value=0.98),
    delta=st.floats(min_value=1e-4, max_value=0.01),
    df=st.floats(min_value=0.5, max_value=1000.0),
)
def test_t_quantile_monotone_in_p(p1, delta, df):
    p2 = p1 + delta
    assert t_quantile(p1, df) < t_quantile(p2, df)


@given(
    p=st.floats(min_value=0.6, max_value=0.99),
    df=st.floats(min_value=0.5, max_value=1000.0),
    factor=st.floats(min_value=1.5, max_value=10.0),
)
def test_t_quantile_decreasing_in_df_above_median(p, df, factor):
    assert t_quantile(p, df) > t_quantile(p, df * factor)


@settings(max_examples=50)
@given(
    x=st.floats(min_value=-20.0, max_value=20.0),
    df=st.floats(min_value=0.5, max_value=1e4),
)
@example(x=1.0, df=1e4)  # t_cdf's lgamma difference alone was 3.2e-12 off here
def test_t_cdf_quantile_round_trip(x, df):
    p = t_cdf(x, df)
    if 1e-12 < p < 1.0 - 1e-12:
        # The p-space round trip holds everywhere the quantile is defined.
        assert abs(t_cdf(t_quantile(p, df), df) - p) < 1e-12
    if 1e-6 < p < 1.0 - 1e-6:
        # The x-space round trip additionally needs 1/pdf(x) conditioning,
        # which blows up in the extreme tails; assert it where it is sane.
        assert abs(t_quantile(p, df) - x) < 1e-6 * max(1.0, abs(x))


def test_error_exit_codes():
    assert DomainError("x").exit_code == 3
    assert InsufficientDataError("x").exit_code == 3
    assert NoSolutionError("x").exit_code == 4
    assert ConvergenceError("x").exit_code == 4
