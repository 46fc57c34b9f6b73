"""Replication confirmation calculus: prediction intervals for a replication's
effect size, confirmation checks, and back-solving implied sample sizes.

``prediction_interval`` and ``back_solve_n`` share one half-width rule; the
back-solve inverts it over the even sample sizes it can return."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effect_size import EffectSize, Interval, standard_error_d
from .errors import DomainError, InconsistentIntervalError, NoSolutionError
from .stats_core import t_quantile

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
    se = standard_error_d(d_orig, m, m) for both studies and df = 2m - 2.
    Bisects that decreasing half-width over the integer m in [2, 5e6]
    (even n in [4, 1e7]) and returns the even n whose half-width is nearest
    the target. The interval must be symmetric about ``d_orig`` to within 0.05.
    """
    if abs(interval.midpoint - d_orig) > _CENTER_TOLERANCE:
        raise InconsistentIntervalError(
            f"interval center {interval.midpoint:.4g} is not within "
            f"{_CENTER_TOLERANCE} of d={d_orig:.4g}"
        )
    target = interval.width / 2.0

    def half_width(m: int) -> float:
        se = standard_error_d(d_orig, m, m)
        return _half_width(se, se, 2 * m - 2, interval.level)

    lo, hi = _M_SEARCH_LO, _M_SEARCH_HI
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
