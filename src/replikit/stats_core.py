"""Numeric substrate in pure Python: sample summaries, the contamination
spec, and Student-t / normal quantiles.

The t distribution is evaluated through the regularized incomplete beta
function (continued fraction), so the package needs no external statistics
dependency and the quantile can be checked against an integration oracle.
Nothing here imports numpy; the random streams and draws live with the
engine in ``replikit.simulation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, InsufficientDataError

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
        if self.n < 2:
            raise InsufficientDataError(f"need n >= 2 observations, got {self.n}")
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise DomainError("mean and sd must be finite")
        if self.sd < 0:
            raise DomainError(f"sd must be >= 0, got {self.sd}")


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
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_pdf(x: float, df: float) -> float:
    """Density of the Student-t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    ln_f = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
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


_T_QUANTILE_TOL = 1e-13
_T_QUANTILE_MAX_ITER = 200
# At large df the CDF carries rounding noise near 1e-10, above the tolerance,
# and Newton steps can wander inside the bracket without shrinking it; after
# this many steps the refinement bisects, which halves the bracket each step.
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

    Solved by a safeguarded Newton iteration on the CDF inside a bisection
    bracket, started from the normal quantile, and by bisection alone after
    50 steps. Antisymmetry ``t_quantile(1 - p, df) == -t_quantile(p, df)``
    holds exactly.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise DomainError(f"df must be > 0, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)

    # Bracket [lo, hi] with F(lo) < p <= F(hi), lo >= 0.
    lo = 0.0
    hi = max(normal_quantile(p), 1.0)
    for _ in range(_T_QUANTILE_MAX_ITER):
        if t_cdf(hi, df) >= p:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ConvergenceError(f"failed to bracket t quantile (p={p}, df={df})")

    x = min(max(normal_quantile(p), lo + 0.25 * (hi - lo)), hi)
    for step in range(_T_QUANTILE_MAX_ITER):
        fx = t_cdf(x, df) - p
        if abs(fx) <= _T_QUANTILE_TOL:
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
            x_new = 0.5 * (lo + hi)
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
