"""Replication confirmation calculus: prediction intervals for a replication's
effect size, confirmation checks, and back-solving implied sample sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effect_size import EffectSize, Interval, standard_error_d
from .errors import DomainError, InconsistentIntervalError, NoSolutionError
from .stats_core import t_quantile

_CENTER_TOLERANCE = 0.05
_N_SEARCH_LO = 4.0
_N_SEARCH_HI = 1e7


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


def prediction_interval(design: ReplicationDesign) -> Interval:
    """Range a confirmatory replication's d is expected to fall in.

    d_orig +/- t_{(1+level)/2, df} * sqrt(se_orig^2 + se_rep^2), with
    df = n1_orig + n2_orig - 2 and se_rep evaluated at the original d.
    Accounts for sampling error in both studies, so it is always wider than
    the original study's confidence interval at the same level.
    """
    orig = design.original
    se_rep = standard_error_d(orig.d, design.n1_rep, design.n2_rep)
    df = orig.n1 + orig.n2 - 2
    tq = t_quantile((1.0 + design.level) / 2.0, df)
    try:
        half_width = tq * math.sqrt(orig.se**2 + se_rep**2)
    except OverflowError:  # float ``**`` raises where numpy would give inf
        half_width = math.inf
    if not math.isfinite(half_width):
        raise DomainError("prediction interval half-width is not finite")
    return Interval(orig.d - half_width, orig.d + half_width, design.level)


def confirms(interval: Interval, d_rep: float) -> bool:
    """True iff the replication effect lies in the interval (inclusive ends)."""
    return interval.contains(d_rep)


def _half_width_equal(d: float, n_total: float, level: float) -> float:
    # Both studies with n_total units split into equal arms: each study's
    # se^2 is 4/n + d^2/(2n), and df = n_total - 2.
    se2 = 4.0 / n_total + d * d / (2.0 * n_total)
    tq = t_quantile((1.0 + level) / 2.0, n_total - 2.0)
    return tq * math.sqrt(2.0 * se2)


def back_solve_n(d_orig: float, interval: Interval, assume_equal: bool = True) -> int:
    """Per-study total sample size implied by a published prediction interval.

    Inverts the prediction-interval half-width for n by monotone bisection
    over n in [4, 1e7], assuming the original and replication studies share
    one total n with equal arms, and returns the even n whose half-width is
    nearest the target. The interval must be symmetric about ``d_orig`` to
    within 0.05.
    """
    if not assume_equal:
        raise DomainError(
            "back-solving without the equal-sizes assumption is under-determined; "
            "pass assume_equal=True"
        )
    if abs(interval.midpoint - d_orig) > _CENTER_TOLERANCE:
        raise InconsistentIntervalError(
            f"interval center {interval.midpoint:.4g} is not within "
            f"{_CENTER_TOLERANCE} of d={d_orig:.4g}"
        )
    target = interval.width / 2.0
    level = interval.level
    lo, hi = _N_SEARCH_LO, _N_SEARCH_HI
    if _half_width_equal(d_orig, lo, level) < target:
        raise NoSolutionError(f"half-width {target:.4g} exceeds the n={int(lo)} maximum")
    if _half_width_equal(d_orig, hi, level) > target:
        raise NoSolutionError(f"half-width {target:.4g} is below the n={int(hi)} minimum")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _half_width_equal(d_orig, mid, level) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    n_star = 0.5 * (lo + hi)
    base = 2 * math.floor(n_star / 2.0)
    candidates = [n for n in (base, base + 2) if _N_SEARCH_LO <= n <= _N_SEARCH_HI]
    return int(min(candidates, key=lambda n: abs(_half_width_equal(d_orig, n, level) - target)))
