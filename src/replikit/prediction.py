"""Replication confirmation calculus: prediction intervals for a replication's
effect size, confirmation checks, and back-solving implied sample sizes.

``prediction_interval`` and ``back_solve_n`` share one half-width rule; the
back-solve inverts it over even n by a search that starts at the n where the
expansion of t about the normal quantile meets the target and gallops
outward, so it asks for two t quantiles when that start is the answer."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effect_size import EffectSize, Interval, standard_error_d
from .errors import DomainError, InconsistentIntervalError, NoSolutionError
from .stats_core import _square, _t_series, normal_quantile, t_quantile

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
    half_width = tq * math.sqrt(_square(se_orig) + _square(se_rep))
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

    The search starts at the nearest m to the root of m = 2 t(z, 2m - 2)^2
    (2 + d^2/4) / target^2, with z the normal quantile and t(z, df)
    ``_t_series``. The root lies between m* = 2 z^2 (2 + d^2/4) / target^2,
    where the normal approximation z * sqrt(2) * se meets the target, and one
    fixed-point step from m*; bisection on the series, which asks for no t
    quantile, finds it to within 1/8. For an interval that
    ``prediction_interval`` made from equal arms, the start is the answer,
    and one more half-width brackets it. Otherwise
    steps of 1, 2, 4, ... from the start bracket the target and bisection
    narrows the bracket to adjacent m. The half-width decreases in m, so
    from any start this ends on the same pair as bisecting all of [2, 5e6],
    and asks for a large df only when the answer is that large.
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
    z = normal_quantile((1.0 + interval.level) / 2.0)
    c = 2.0 * (2.0 + d_orig * d_orig / 4.0)
    r = z / target if target > 0 else math.inf
    m_est = c * r * r
    if _M_SEARCH_LO < m_est < _M_SEARCH_HI:

        def m_at(m: float) -> float:  # the m whose half-width at t(z, 2m - 2) is the target
            r = _t_series(z, 2.0 * m - 2.0) / target
            return c * r * r

        # t falls as df grows, so m - m_at(m) rises from m* to m_at(m*).
        below, above = m_est, min(m_at(m_est), _M_SEARCH_HI)
        while above - below > 0.25:
            mid = 0.5 * (below + above)
            if mid < m_at(mid):
                below = mid
            else:
                above = mid
        m_est = 0.5 * (below + above)
    m = _M_SEARCH_HI if not m_est < _M_SEARCH_HI else max(_M_SEARCH_LO, round(m_est))
    lo, hi, step = m, m, 1
    w_lo = w_hi = half_width(m)
    while w_hi > target:  # gallop up until the half-width is at or below the target
        if hi == _M_SEARCH_HI:
            raise NoSolutionError(f"half-width {target:.4g} is below the n={2 * hi} minimum")
        lo, w_lo, hi, step = hi, w_hi, min(hi + step, _M_SEARCH_HI), 2 * step
        w_hi = half_width(hi)
    while w_lo <= target:  # gallop down until the half-width is above the target
        if lo == _M_SEARCH_LO:
            if w_lo < target:
                raise NoSolutionError(f"half-width {target:.4g} exceeds the n={2 * lo} maximum")
            return 2 * lo  # the n = 4 half-width equals the target
        hi, w_hi, lo, step = lo, w_lo, max(lo - step, _M_SEARCH_LO), 2 * step
        w_lo = half_width(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        w_mid = half_width(mid)
        if w_mid > target:
            lo, w_lo = mid, w_mid
        else:
            hi, w_hi = mid, w_mid
    return 2 * (lo if w_lo - target <= target - w_hi else hi)
