"""Numeric substrate in pure Python: sample summaries, the contamination
spec, Student-t / normal quantiles, and ``_square``, the one overflow-safe
float square behind d's pooled sd, the prediction half-width and Cochran's Q.

The t distribution is evaluated through the regularized incomplete beta
function (continued fraction). Its quantile is Newton's method on that CDF
from the expansion about the normal quantile (from the leading tail term
below df 1), and from df 1e4 on the expansion alone, so the package needs no
external statistics dependency and the quantile can be checked against an
integration oracle.
Nothing here imports numpy; the random streams and draws live with the
engine in ``replikit.simulation``.
"""

from __future__ import annotations

import math
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
# Special functions: regularized incomplete beta, t distribution, normal
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 500
_BETACF_EPS = 3e-16
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function, modified Lentz
    # evaluation. Requires x < (a+1)/(a+b+2) for fast convergence; the caller
    # applies the symmetry transform.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
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


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DomainError(f"a and b must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # -ln B(a, b), with Stirling's series on the larger parameter from 1000 on.
    if b > a and b >= _STIRLING_MIN_A:
        ln_bt = _lgamma_shift(b, a) - math.lgamma(a)
    else:
        ln_bt = _lgamma_shift(a, b) - math.lgamma(b)
    bt = math.exp(ln_bt + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_pdf(x: float, df: float) -> float:
    """Density of the Student-t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    ln_f = (
        _lgamma_shift(df / 2.0, 0.5)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1.0) / 2.0) * math.log1p(x * x / df)
    )
    return math.exp(ln_f)


def t_cdf(x: float, df: float) -> float:
    """CDF of the Student-t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    if x == 0.0:
        return 0.5
    # Two-sided tail P(|T| > |x|) = I_{df/(df+x^2)}(df/2, 1/2).
    two_tail = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - 0.5 * two_tail if x > 0 else 0.5 * two_tail


def normal_quantile(p: float) -> float:
    """Standard normal quantile, accurate to close to machine precision."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    # Acklam's rational approximation, then one Halley refinement via erfc.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
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
    upper tail's leading term, (df/x^2)^(df/2) / ((df/2) B(df/2, 1/2)). A
    step that leaves the bracket the CDFs so far have set bisects it, or
    doubles x while none has reached p; after 50 steps it only bisects. It
    returns after a step below 1e-15 relative, or where the CDF is p
    exactly, and raises ``ConvergenceError`` where x**2 overflows, which the
    CDF cannot tell from infinity (the far tail below df 0.08). Antisymmetry
    ``t_quantile(1 - p, df) == -t_quantile(p, df)`` holds exactly.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    # Closed forms at df 1 and 2, from p - 0.5 and 1 - p, both exact here.
    if df == 1.0:
        return math.tan(math.pi * (p - 0.5)) if p < 0.75 else 1.0 / math.tan(math.pi * (1.0 - p))
    if df == 2.0:
        return 2.0 * (p - 0.5) / math.sqrt(2.0 * p * (1.0 - p))
    if df < 1.0:
        # The leading tail term: 2(1 - p) ~ (df/x^2)^(df/2) / ((df/2) B(df/2, 1/2)).
        ln_x = 0.5 * math.log(df) - (math.log((1.0 - p) * math.sqrt(math.pi)) + math.log(df)
                                     - _lgamma_shift(0.5 * df, 0.5)) / df
        x = math.exp(min(ln_x, 709.0))
    else:
        x = _t_series(normal_quantile(p), df)
        if df >= _T_SERIES_MIN_DF:
            return x
    # [lo, hi] brackets the root; hi stays inf until a CDF reaches p.
    lo, hi = 0.0, math.inf
    for step in range(_T_QUANTILE_MAX_ITER):
        if x * x == math.inf:
            raise ConvergenceError(f"t quantile overflows: x**2 exceeds the float range (p={p}, df={df})")
        fx = t_cdf(x, df) - p
        if fx == 0.0:
            return x
        if fx > 0:
            hi = x
        else:
            lo = x
        dens = t_pdf(x, df)
        step_ok = step < _T_QUANTILE_NEWTON_ITER and dens > 0.0
        if step_ok:
            x_new = x - fx / dens
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
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
