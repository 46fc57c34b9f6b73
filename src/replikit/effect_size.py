"""Standardized mean difference (Cohen's d): point estimate, standard error,
confidence intervals, and sign/magnitude classification."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateSampleError, DomainError
from .stats_core import SampleSummary, _square, normal_quantile


@dataclass(frozen=True)
class EffectSize:
    """Standardized mean difference with its standard error and arm sizes."""

    d: float
    se: float
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.d):
            raise DomainError(f"d must be finite, got {self.d}")
        if not (math.isfinite(self.se) and self.se > 0):
            raise DomainError(f"se must be finite and > 0, got {self.se}")
        if self.n1 < 2 or self.n2 < 2:
            raise DomainError(f"arm sizes must be >= 2, got n1={self.n1}, n2={self.n2}")


class EffectCategory(Enum):
    """Seven sign/magnitude bands partitioning the real line."""

    LARGE_NEG = "large_neg"
    MED_NEG = "med_neg"
    SMALL_NEG = "small_neg"
    NONE = "none"
    SMALL_POS = "small_pos"
    MED_POS = "med_pos"
    LARGE_POS = "large_pos"


# Cohen (1992) small/medium/large thresholds of |d|; a boundary value belongs
# to the inner band. Band k of a d is _CATEGORIES[3 + k] above 0, else [3 - k].
_BANDS = (0.2, 0.5, 0.8)
_CATEGORIES = tuple(EffectCategory)

def category_label(cat: EffectCategory) -> str:
    """Short human-readable label for a category: ``med_neg`` is ``Med-``."""
    size, _, sign = cat.value.partition("_")
    return size.capitalize() + {"neg": "-", "pos": "+"}.get(sign, "")


def _check_level(level: float) -> None:
    """Every interval's level rule: in (0, 1), and (1 + level)/2 below 1 (not 1 - 2^-53)."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    if (1.0 + level) / 2.0 == 1.0:
        raise DomainError(f"level {level} is too close to 1: (1 + level)/2 rounds to 1")


@dataclass(frozen=True)
class Interval:
    """A (lower, upper) range at a given coverage level."""

    lower: float
    upper: float
    level: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise DomainError(f"interval requires lower <= upper, got [{self.lower}, {self.upper}]")
        _check_level(self.level)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


_NON_FINITE_SD = "pooled standard deviation is not finite; d undefined"
# An sd below this has a subnormal square; the pooled-sd kernels then square
# both sds scaled by a power of two (exact) and undo the scale on the root.
_TINY_SD = 2.0**-511


def standard_error_d(d: float, n1: int, n2: int) -> float:
    """Large-sample standard error of d: sqrt((n1+n2)/(n1*n2) + d^2/(2(n1+n2)))."""
    if n1 < 2 or n2 < 2:
        raise DomainError(f"arm sizes must be >= 2, got n1={n1}, n2={n2}")
    n = n1 + n2
    return math.sqrt(n / (n1 * n2) + d * d / (2.0 * n))


def hedges_correction(df: int) -> float:
    """Small-sample bias correction factor J for df = n1 + n2 - 2, to 1e-12 relative."""
    if df < 2:
        raise DomainError(f"df must be >= 2, got {df}")
    if df >= 1000:  # the lgamma difference below cancels; its series in 1/df does not
        return 1.0 - (0.75 + (7 / 32 + (9 / 128 - 59 / 2048 / df) / df) / df) / df
    return math.exp(math.lgamma(df / 2.0) - math.lgamma((df - 1) / 2.0)) / math.sqrt(df / 2.0)


def _d_se(n1: int, mean1: float, sd1: float, n2: int, mean2: float, sd2: float):
    """(d, se) of two arms: the scalar kernel of ``cohens_d`` and study pooling.

    A pooled sd that is zero or not finite (sds above about 1e154) raises, as
    in ``simulation.cohens_d_rows``, and so does a d or se that ``EffectSize``
    rejects. Both sds below 2^-511 are squared at a power-of-two scale.
    """
    scale = 0
    if max(sd1, sd2) < _TINY_SD:
        scale = math.frexp(max(sd1, sd2))[1]
        sd1, sd2 = math.ldexp(sd1, -scale), math.ldexp(sd2, -scale)
    var_sum = (n1 - 1) * _square(sd1) + (n2 - 1) * _square(sd2)
    sp = math.ldexp(math.sqrt(var_sum / (n1 + n2 - 2)), scale)
    if not math.isfinite(sp):
        raise DomainError(_NON_FINITE_SD)
    if sp == 0.0:
        raise DegenerateSampleError("pooled standard deviation is zero; d undefined")
    d = (mean1 - mean2) / sp
    se = standard_error_d(d, n1, n2)
    if not math.isfinite(se):  # so is every se of a d that is not finite
        EffectSize(d=d, se=se, n1=n1, n2=n2)  # raises with its message for d or se
    return d, se


def cohens_d(arm1: SampleSummary, arm2: SampleSummary, hedges: bool = False) -> EffectSize:
    """Standardized mean difference between two arms.

    d = (mean1 - mean2) / sp, where sp is the degrees-of-freedom-weighted
    pooled sd, with the standard error from ``standard_error_d``; ``_d_se``
    holds the rules for extreme sds. With ``hedges=True`` the exact
    small-sample correction is applied to both d and its se (off by default).
    """
    d, se = _d_se(arm1.n, arm1.mean, arm1.sd, arm2.n, arm2.mean, arm2.sd)
    if hedges:
        j = hedges_correction(arm1.n + arm2.n - 2)
        d, se = j * d, j * se
    return EffectSize(d=d, se=se, n1=arm1.n, n2=arm2.n)


def classify(d: float) -> EffectCategory:
    """Bin d into one of the seven sign/magnitude categories."""
    if not math.isfinite(d):
        raise DomainError(f"d must be finite, got {d}")
    band = bisect_left(_BANDS, abs(d))
    return _CATEGORIES[3 + band if d > 0 else 3 - band]


def confidence_interval(effect: EffectSize, level: float = 0.95) -> Interval:
    """Normal-quantile confidence interval d +/- z * se, symmetric about d."""
    _check_level(level)
    z = normal_quantile((1.0 + level) / 2.0)
    return Interval(effect.d - z * effect.se, effect.d + z * effect.se, level)
