"""Replication confirmation calculus: prediction intervals for a replication's
effect size, confirmation checks, and back-solving implied sample sizes.

``prediction_interval`` and ``back_solve_n`` share one half-width rule; the
back-solve inverts it over even n by a search that starts at the normal
approximation's n and gallops outward, so it asks for few t quantiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effect_size import EffectSize, Interval, standard_error_d
from .errors import DomainError, InconsistentIntervalError, NoSolutionError
from .stats_core import normal_quantile, t_quantile

_CENTER_TOLERANCE = 0.05
# back_solve_n searches per-arm sizes m, i.e. total n = 2m in [4, 1e7].
_M_SEARCH_LO = 2
_M_SEARCH_HI = 5_000_000


@dataclass(frozen=True)
class ReplicationDesign:
    """An original study's effect plus the planned replication's arm sizes."""

    original: EffectSize
    n1_rep: int
    n2_rep: int
    level: float = 0.95

    def __post_init__(self) -> None:
        if self.n1_rep < 2 or self.n2_rep < 2:
            raise DomainError(f"replication arms must be >= 2, got {self.n1_rep}, {self.n2_rep}")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")


def _half_width(se_orig: float, se_rep: float, df: float, level: float) -> float:
    tq = t_quantile((1.0 + level) / 2.0, df)
    try:
        half_width = tq * math.sqrt(se_orig**2 + se_rep**2)
    except OverflowError:  # float ``**`` raises where numpy would give inf
        half_width = math.inf
    if not math.isfinite(half_width):
        raise DomainError("prediction interval half-width is not finite")
    return half_width


def prediction_interval(design: ReplicationDesign) -> Interval:
    """Range a confirmatory replication's d is expected to fall in.

    d_orig +/- t_{(1+level)/2, df} * sqrt(se_orig^2 + se_rep^2), with
    df = n1_orig + n2_orig - 2 and se_rep evaluated at the original d.
    Accounts for sampling error in both studies, so it is always wider than
    the original study's confidence interval at the same level.
    """
    orig = design.original
    se_rep = standard_error_d(orig.d, design.n1_rep, design.n2_rep)
    half_width = _half_width(orig.se, se_rep, orig.n1 + orig.n2 - 2, design.level)
    return Interval(orig.d - half_width, orig.d + half_width, design.level)


def confirms(interval: Interval, d_rep: float) -> bool:
    """True iff the replication effect lies in the interval (inclusive ends)."""
    if not math.isfinite(d_rep):
        raise DomainError(f"d_rep must be finite, got {d_rep}")
    return interval.contains(d_rep)


def back_solve_n(d_orig: float, interval: Interval) -> int:
    """Per-study total sample size implied by a published prediction interval.

    Assumes the original and replication studies share one total n = 2m with
    m units per arm, so the half-width is ``prediction_interval``'s at
    se = standard_error_d(d_orig, m, m) for both studies and df = 2m - 2,
    and returns the even n in [4, 1e7] whose half-width is nearest the
    target. The interval must be symmetric about ``d_orig`` to within 0.05.

    The search starts at m* = 2 z^2 (2 + d^2/4) / target^2, where the normal
    approximation z * sqrt(2) * se meets the target. t > z at every df, so
    the answer is at or just above m*: steps of 1, 2, 4, ... from m* bracket
    the target and bisection narrows the bracket to adjacent m. The
    half-width decreases in m, so this ends on the same pair as bisecting all
    of [2, 5e6], and asks for a large df only when the answer is that large.
    """
    # An interval with both ends infinite has a nan centre, which lies near no d.
    if math.isnan(interval.midpoint) or abs(interval.midpoint - d_orig) > _CENTER_TOLERANCE:
        raise InconsistentIntervalError(
            f"interval center {interval.midpoint:.4g} is not within "
            f"{_CENTER_TOLERANCE} of d={d_orig:.4g}"
        )
    target = interval.width / 2.0

    def half_width(m: int) -> float:
        se = standard_error_d(d_orig, m, m)
        return _half_width(se, se, 2 * m - 2, interval.level)

    # A nan m* (nan d, or 0 * inf) starts at the top end, like an infinite one.
    r = normal_quantile((1.0 + interval.level) / 2.0) / target if target > 0 else math.inf
    m_est = 2.0 * (2.0 + d_orig * d_orig / 4.0) * r * r
    m = _M_SEARCH_HI if not m_est < _M_SEARCH_HI else max(_M_SEARCH_LO, int(m_est))
    w, step = half_width(m), 1
    if w > target:  # gallop up until the half-width is at or below the target
        lo, w_lo = m, w
        while True:
            if lo == _M_SEARCH_HI:
                raise NoSolutionError(f"half-width {target:.4g} is below the n={2 * lo} minimum")
            hi = min(lo + step, _M_SEARCH_HI)
            w_hi = half_width(hi)
            if w_hi <= target:
                break
            lo, w_lo, step = hi, w_hi, 2 * step
    else:  # gallop down until the half-width is above the target
        hi, w_hi = m, w
        while True:
            if hi == _M_SEARCH_LO:
                if w_hi < target:
                    raise NoSolutionError(f"half-width {target:.4g} exceeds the n={2 * hi} maximum")
                return 2 * hi  # the n = 4 half-width equals the target
            lo = max(hi - step, _M_SEARCH_LO)
            w_lo = half_width(lo)
            if w_lo > target:
                break
            hi, w_hi, step = lo, w_lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        w_mid = half_width(mid)
        if w_mid > target:
            lo, w_lo = mid, w_mid
        else:
            hi, w_hi = mid, w_mid
    return 2 * (lo if w_lo - target <= target - w_hi else hi)
