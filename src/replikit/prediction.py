"""Replication confirmation calculus: prediction intervals for a replication's
effect size, confirmation checks, and back-solving implied sample sizes.

``prediction_interval`` and ``back_solve_n`` share one half-width rule; the
back-solve inverts it over even n by a search that starts at a closed-form
t-corrected n and gallops outward, so it asks for two t quantiles when that
start is the answer, and raises for a target beyond either end of its range."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effect_size import EffectSize, Interval, standard_error_d
from .errors import DomainError, InconsistentIntervalError, NoSolutionError
from .stats_core import _square, normal_quantile, t_quantile

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


def _measured_half_width(d: float, m: int, level: float) -> float:
    """The half-width of two studies of m units per arm, measured as the target
    of ``back_solve_n`` is: half the width of the interval d -/+ w."""
    se = standard_error_d(d, m, m)
    w = _half_width(se, se, 2 * m - 2, level)
    return ((d + w) - (d - w)) / 2.0


def back_solve_n(d_orig: float, interval: Interval) -> int:
    """Per-study total sample size implied by a published prediction interval.

    Assumes the original and replication studies share one total n = 2m with
    m units per arm, so the half-width is ``prediction_interval``'s at
    se = standard_error_d(d_orig, m, m) for both studies and df = 2m - 2,
    and returns the even n in [4, 1e7] whose half-width is nearest the
    target. The interval must be symmetric about ``d_orig`` to within 0.05.
    Each half-width w is measured as the target is, ((d + w) - (d - w)) / 2,
    so an interval that ``prediction_interval`` made gives back its own n.

    The search starts at the nearest m to m* + a1 + b/m*, where
    m* = 2 z^2 (2 + d^2/4) / target^2 is the m at which the normal
    approximation z * sqrt(2) * se meets the target, with z the normal
    quantile; an m* outside (2, 5e6) starts at the nearer end. Putting the
    first two terms of the expansion of t about z (Abramowitz & Stegun
    26.7.5), t/z = 1 + a1/df + a2/df^2, into m = m* (t/z)^2 gives
    a1 = (z^2 + 1)/4, a2 = (5z^4 + 16z^2 + 3)/96 and
    b = a1 - 3 a1^2/4 + a2/2. For an interval that ``prediction_interval``
    made from equal arms, the start is the answer or its neighbour, and one
    more half-width brackets the answer. Otherwise steps of 1, 2, 4, ... from
    the start bracket the target inside [2, 5e6] and bisection narrows the
    bracket to adjacent m; a target beyond either end raises
    ``NoSolutionError``. The measured half-width never rises with m, so from
    any start this ends on the same pair as bisecting all of [2, 5e6], and
    asks for a large df only when the answer is that large.
    """
    # An interval with both ends infinite has a nan centre, which lies near no d.
    if math.isnan(interval.midpoint) or abs(interval.midpoint - d_orig) > _CENTER_TOLERANCE:
        raise InconsistentIntervalError(
            f"interval center {interval.midpoint:.4g} is not within "
            f"{_CENTER_TOLERANCE} of d={d_orig:.4g}"
        )
    target, level = interval.width / 2.0, interval.level
    # A nan m* (nan d, or 0 * inf) starts at the top end, like an infinite one.
    z = normal_quantile((1.0 + level) / 2.0)
    r = z / target if target > 0 else math.inf
    m_est = 2.0 * (2.0 + d_orig * d_orig / 4.0) * r * r
    if _M_SEARCH_LO < m_est < _M_SEARCH_HI:
        a1 = (z * z + 1.0) / 4.0
        a2 = ((5.0 * z * z + 16.0) * z * z + 3.0) / 96.0
        m_est += a1 + (a1 - 0.75 * a1 * a1 + 0.5 * a2) / m_est
    m = _M_SEARCH_HI if not m_est < _M_SEARCH_HI else max(_M_SEARCH_LO, round(m_est))
    lo, hi, step = m, m, 1
    w_lo = w_hi = _measured_half_width(d_orig, m, level)
    while w_hi > target and hi < _M_SEARCH_HI:  # gallop up to a half-width at or below the target
        lo, w_lo, hi, step = hi, w_hi, min(hi + step, _M_SEARCH_HI), 2 * step
        w_hi = _measured_half_width(d_orig, hi, level)
    while w_lo <= target and lo > _M_SEARCH_LO:  # gallop down to one above it
        hi, w_hi, lo, step = lo, w_lo, max(lo - step, _M_SEARCH_LO), 2 * step
        w_lo = _measured_half_width(d_orig, lo, level)
    if w_hi > target:
        raise NoSolutionError(f"half-width {target:.4g} is below the n={2 * hi} minimum")
    if w_lo < target:
        raise NoSolutionError(f"half-width {target:.4g} exceeds the n={2 * lo} maximum")
    while hi - lo > 1 and w_lo > target:  # w_lo equals it only at n = 4, the answer
        mid = (lo + hi) // 2
        w_mid = _measured_half_width(d_orig, mid, level)
        if w_mid > target:
            lo, w_lo = mid, w_mid
        else:
            hi, w_hi = mid, w_mid
    return 2 * (lo if w_lo - target <= target - w_hi else hi)
