"""Numeric substrate in pure Python: sample summaries, the contamination
spec, Student-t / normal quantiles, and ``_square``, the one overflow-safe
float square behind d's pooled sd, the prediction half-width and Cochran's Q.

The normal quantile is AS241 (``statistics.NormalDist``) after one Halley
step on a residual that does not cancel, or AS241 alone at subnormal p. The
t CDF evaluates the regularized incomplete beta by its continued fraction, in
``_t_cdf_kernel``, which does not cancel near the median; from df 1e16 on it
is the normal CDF. Its quantile is Newton's method on that kernel from the
expansion about the normal quantile (from the leading tail term below df 1),
and from df 1e4 on the expansion alone, so the quantile can be checked
against an integration oracle. Nothing here imports numpy; the random
streams and draws live with the engine in ``replikit.simulation``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, InsufficientDataError


def _square(x: float) -> float:
    """``x**2``, or inf where float ``**`` raises OverflowError and numpy would
    give inf; the same libm pow either way, so a finite square keeps its bits."""
    try:
        return x**2
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Sample summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContaminationSpec:
    """Mixed-normal contamination: with probability ``epsilon`` a draw comes
    from a normal whose sd is ``scale_mult`` times wider."""

    epsilon: float = 0.1
    scale_mult: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not (math.isfinite(self.scale_mult) and self.scale_mult > 1.0):
            raise DomainError(f"scale_mult must be finite and > 1, got {self.scale_mult}")
        # A standard normal draw is far below 1e3, so a contaminated one is below
        # 1e103. An arm of simulation.MAX_N_PER_ARM = 1e6 of them sums below 1e109, and
        # its squared deviations below 1e6 * (2e103)^2 = 4e212: none of these overflows.
        if self.scale_mult > 1e100:
            raise DomainError(f"scale_mult must be at most 1e100, got {self.scale_mult}")


@dataclass(frozen=True)
class SampleSummary:
    """Count, mean, and sample standard deviation (n-1 denominator) of one arm."""

    n: int
    mean: float
    sd: float

    def __post_init__(self) -> None:
        _check_arm(self.n, self.mean, self.sd)


def _check_arm(n: int, mean: float, sd: float) -> None:
    """The checks of one arm summary, shared with the study-CSV parser."""
    if n < 2:
        raise InsufficientDataError(f"need n >= 2 observations, got {n}")
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise DomainError("mean and sd must be finite")
    if sd < 0:
        raise DomainError(f"sd must be >= 0, got {sd}")


# ---------------------------------------------------------------------------
# Special functions: t distribution, normal quantile
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 500
_BETACF_EPS = 3e-16
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function, modified Lentz
    # evaluation. Requires x < (a+1)/(a+b+2) for fast convergence; the caller
    # applies the symmetry transform. The chained comparisons and the float m
    # do the IEEE operations of abs() and an int m with less interpreter work.
    fpmin, eps = _BETACF_FPMIN, _BETACF_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -fpmin < d < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(_BETACF_MAX_ITER):
        m += 1.0
        m2 = m + m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            return h
    raise ConvergenceError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


# From this a on, lgamma(a + b) - lgamma(a) comes from Stirling's series: the
# two lgamma values are near a*log(a), and their difference keeps only about
# a*log(a)*1e-16 of absolute accuracy (1.7e-8 at a = 5e6).
_STIRLING_MIN_A = 1000.0


def _lgamma_shift(a: float, b: float) -> float:
    """``lgamma(a + b) - lgamma(a)`` for a, b > 0.

    From a = 1000 on it is (a - 1/2)*log1p(b/a) + b*log(a + b) - b
    + w(a + b) - w(a), with Stirling's tail w(x) = 1/(12x) - 1/(360x^3)
    + 1/(1260x^5), which has no cancelling lgamma pair; below, the two lgamma
    values themselves.
    """
    if a < _STIRLING_MIN_A:
        return math.lgamma(a + b) - math.lgamma(a)

    def tail(x: float) -> float:
        x2 = x * x
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x

    return (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b + tail(a + b) - tail(a)


_LGAMMA_HALF = math.lgamma(0.5)


def _t_cdf_kernel(x2: float, df: float, a: float, lead: float) -> tuple[bool, float]:
    """The t CDF at |x| = sqrt(x2) as ``(central, h)``: F(|x|) = 1/2 + h when
    central, else F(|x|) = 1 - h and F(-|x|) = h. ``a`` is df/2 and ``lead``
    is ``_lgamma_shift(a, 1/2) - lgamma(1/2)``, which a quantile computes once.

    Past the continued fraction's switch point, y = df/(df + x2) below
    (a + 1)/(a + 5/2), h is half the two-sided tail I_y(a, 1/2). Short of it,
    x2 up to 3 df/(df + 2), which is below 3, h is half the central mass
    I_y'(1/2, a), with y' = x2/(df + x2) formed directly: near the median y
    rounds toward 1, and 1 - I_y(a, 1/2) would cancel.
    """
    y = df / (df + x2)
    if y < (a + 1.0) / (a + 0.5 + 2.0):
        if y == 0.0:  # I_0 = 0
            return False, 0.0
        bt = math.exp(lead + a * math.log(y) + 0.5 * math.log1p(-y))
        return False, 0.5 * (bt * _betacf(a, 0.5, y) / a)
    y = x2 / (df + x2)
    if y == 0.0:  # I_0 = 0, where x2 underflows
        return True, 0.0
    bt = math.exp(lead + 0.5 * math.log(y) + a * math.log1p(-y))
    return True, bt * _betacf(0.5, a, y)


# From this df on, t_cdf is the normal CDF, within 0.158/df of it (the first
# term in 1/df). The kernel's switch point rounds to 1 there, so its fraction
# meets x where it converges to a wrong value, and near df 1e308 it overflows.
_T_NORMAL_MIN_DF = 1e16


def t_cdf(x: float, df: float) -> float:
    """CDF of the Student-t distribution with ``df`` degrees of freedom, from
    ``_t_cdf_kernel`` below df 1e16 and the normal CDF from there on."""
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    if x == 0.0:
        return 0.5
    a = df / 2.0
    x2 = x * x
    if not (a > 0.0 and df / (df + x2) >= 0.0):
        raise DomainError(f"x must be a number and df finite with df/2 > 0, got x={x}, df={df}")
    if df >= _T_NORMAL_MIN_DF:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    central, h = _t_cdf_kernel(x2, df, a, _lgamma_shift(a, 0.5) - _LGAMMA_HALF)
    if central:
        return 0.5 + h if x > 0 else 0.5 - h
    return 1.0 - h if x > 0 else h


_STANDARD_NORMAL = statistics.NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile, held to 1e-15 relative against mpmath.

    Wichura's AS241 (1988), from ``statistics.NormalDist``, then one Halley
    step on Phi(x) - p formed without cancelling: from p below 1/4, from the
    exact p - 1/2 against erf up to 3/4 and from the exact 1 - p against erfc
    above. At subnormal p, where exp(x*x/2) overflows, AS241 alone (2 ulp).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    x = _STANDARD_NORMAL.inv_cdf(p)
    if p < 0.25:
        err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    elif p <= 0.75:
        err = 0.5 * math.erf(x / math.sqrt(2.0)) - (p - 0.5)
    else:
        err = (1.0 - p) - 0.5 * math.erfc(x / math.sqrt(2.0))
    try:
        u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    except OverflowError:
        return x
    return x - u / (1.0 + x * u / 2.0)


def _t_series(z: float, df: float) -> float:
    """The t quantile at the normal quantile ``z``, from the first four terms in
    1/df of its expansion about z (Abramowitz & Stegun 26.7.5).

    The first omitted term is O(z^11 / df^5). For p up to 1 - 1e-12 (z up to
    7.04) its relative error is below 1e-3 at df 30, 3e-6 at df 100, 2e-8 at
    df 300, 5e-11 at df 1000 and 2e-13 at df 3000, and from df 1e4 on it is
    rounding alone, below 1e-15, so from df 1e4 on it is the quantile itself.
    """
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


_T_QUANTILE_MAX_ITER = 200
# From this df on, t_quantile is the series about the normal quantile, whose
# omitted terms are below rounding there; the CDF's rounding noise grows with
# df (about 1e-10 near df 1e6). Below it, where that noise can still exceed
# the 1e-15 step stop, Newton steps can wander inside the bracket without
# shrinking it; after this many steps the refinement bisects, which halves
# the bracket each step.
_T_SERIES_MIN_DF = 1e4
_T_QUANTILE_NEWTON_ITER = 50


def t_quantile(p: float, df: float) -> float:
    """Quantile of the Student-t distribution.

    Parameters
    ----------
    p : float
        Probability, strictly between 0 and 1.
    df : float
        Degrees of freedom, strictly positive.

    Returns
    -------
    float
        x such that ``t_cdf(x, df) == p`` to within 1e-10 or better.

    At df 1 and 2 it is the closed form, formed from ``1 - p`` in the upper
    tail so that it does not cancel there. From df 1e4 on, where
    ``_t_series``' truncation error is below rounding and the CDF's rounding
    noise grows, it is ``_t_series`` at the normal quantile, as accurate as
    ``normal_quantile`` itself. Otherwise Newton's method on the CDF refines
    a start: ``_t_series`` at the normal quantile from df 1 (Hill's
    expansion, CACM Algorithm 396, 1970), and below df 1 the quantile of the
    upper tail's leading term, (df/x^2)^(df/2) / ((df/2) B(df/2, 1/2)). Near
    the median the residual is the kernel's half central mass less the exact
    p - 1/2, which does not cancel. A step that leaves the bracket the CDFs
    so far have set bisects it, or doubles x while none has reached p; after
    50 steps it only bisects. It returns after a step below 1e-15 of x (of
    max(1, x) in the tail), or where the CDF is p exactly, and raises
    ``ConvergenceError`` where x**2 overflows, which the CDF cannot tell from
    infinity (the far tail below df 0.08). Below 1/2 it is
    ``-t_quantile(1 - p, df)``, so antisymmetry holds exactly, and it refuses
    p <= 2^-54, where 1 - p rounds to 1.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        if 1.0 - p == 1.0:
            raise DomainError(f"p must be above 2^-54, where 1 - p rounds to 1; got {p!r}")
        return -t_quantile(1.0 - p, df)
    # Closed forms at df 1 and 2, from p - 0.5 and 1 - p, both exact here.
    if df == 1.0:
        return math.tan(math.pi * (p - 0.5)) if p < 0.75 else 1.0 / math.tan(math.pi * (1.0 - p))
    if df == 2.0:
        return 2.0 * (p - 0.5) / math.sqrt(2.0 * p * (1.0 - p))
    a = df / 2.0
    lgs = _lgamma_shift(a, 0.5)
    if df < 1.0:
        # The leading tail term: 2(1 - p) ~ (df/x^2)^(df/2) / ((df/2) B(df/2, 1/2)).
        ln_x = 0.5 * math.log(df) - (math.log((1.0 - p) * math.sqrt(math.pi)) + math.log(df) - lgs) / df
        x = math.exp(min(ln_x, 709.0))
    else:
        x = _t_series(normal_quantile(p), df)
        if df >= _T_SERIES_MIN_DF:
            return x
    # What one quantile holds constant: the CDF's lead, the density's log
    # normaliser and exponent, and p - 1/2, exact here by Sterbenz.
    lead = lgs - _LGAMMA_HALF
    ln_norm = lgs - 0.5 * math.log(df * math.pi)
    power = (df + 1.0) / 2.0
    q = p - 0.5
    # [lo, hi] brackets the root; hi stays inf until a CDF reaches p.
    lo, hi = 0.0, math.inf
    for step in range(_T_QUANTILE_MAX_ITER):
        x2 = x * x
        if x2 == math.inf:
            raise ConvergenceError(f"t quantile overflows: x**2 exceeds the float range (p={p}, df={df})")
        central, h = _t_cdf_kernel(x2, df, a, lead)
        fx = h - q if central else (1.0 - h) - p
        if fx == 0.0:
            return x
        if fx > 0:
            hi = x
        else:
            lo = x
        dens = math.exp(ln_norm - power * math.log1p(x2 / df))
        step_ok = step < _T_QUANTILE_NEWTON_ITER and dens > 0.0
        if step_ok:
            x_new = x - fx / dens
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(x_new - x) <= 1e-15 * (x if central else max(1.0, x)):
            return x_new
        x = x_new
    raise ConvergenceError(f"t quantile iteration did not converge (p={p}, df={df})")


# Stop-gap: perfbench's dump-row oracle (``recompute_experiment``) still looks
# these engine names up here. They live in ``replikit.simulation`` and load
# numpy, so they resolve on first use only. The benchmark change that
# recomputes dump rows from ``draw_rows`` retires this (ROADMAP item 5).
_ENGINE_NAMES = frozenset({"derive_substream", "draw_normal", "draw_contaminated", "summarize"})


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
