"""Fixed-effects inverse-variance pooling of standardized mean differences,
heterogeneity statistics, and forest/funnel plot models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .effect_size import Interval, cohens_d
from .errors import DomainError, InsufficientDataError
from .stats_core import SampleSummary, normal_quantile


@dataclass(frozen=True)
class StudySummary:
    """One study's input: either two arm summaries or a precomputed (d, se).

    Exactly one of the two forms must be present. ``n1``/``n2`` may accompany
    the (d, se) form when the sample sizes are known.
    """

    study_id: str
    label: str
    arm1: SampleSummary | None = None
    arm2: SampleSummary | None = None
    d: float | None = None
    se: float | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self) -> None:
        has_arms = self.arm1 is not None or self.arm2 is not None
        arms_complete = self.arm1 is not None and self.arm2 is not None
        has_direct = self.d is not None or self.se is not None
        direct_complete = self.d is not None and self.se is not None
        if arms_complete and direct_complete:
            raise DomainError(f"study {self.study_id!r}: both input forms present")
        if has_arms and not arms_complete:
            raise DomainError(f"study {self.study_id!r}: only one arm summary given")
        if has_direct and not direct_complete:
            raise DomainError(f"study {self.study_id!r}: d and se must be given together")
        if not arms_complete and not direct_complete:
            raise DomainError(f"study {self.study_id!r}: no complete input form")
        if direct_complete:
            if not math.isfinite(self.d):
                raise DomainError(f"study {self.study_id!r}: d must be finite")
            # se^2 then lies in [2^-1022, 2^1022], normal doubles, so the
            # pooling weight 1/se^2 is finite and positive.
            if not 2.0**-511 <= self.se <= 2.0**511:
                raise DomainError(
                    f"study {self.study_id!r}: se must be in [2^-511, 2^511], where its "
                    f"weight 1/se^2 is finite and > 0; got {self.se!r}"
                )
        if (self.n1 is not None and self.n1 < 2) or (self.n2 is not None and self.n2 < 2):
            raise DomainError(
                f"study {self.study_id!r}: n1 and n2 must be >= 2, got {self.n1} and {self.n2}"
            )

    def effect(self) -> tuple[float, float]:
        """(d, se), computed from the arms when given as raw summaries."""
        if self.arm1 is not None and self.arm2 is not None:
            e = cohens_d(self.arm1, self.arm2)
            return e.d, e.se
        return float(self.d), float(self.se)


@dataclass(frozen=True)
class MetaResult:
    """Pooled estimate with per-study weights and heterogeneity statistics."""

    pooled_d: float
    pooled_se: float
    ci: Interval
    weights: tuple[float, ...]
    q_statistic: float
    i_squared: float


@dataclass(frozen=True)
class ForestRow:
    """One study's renderable row; marker_area is proportional to its weight."""

    label: str
    d: float
    ci: Interval
    marker_area: float


@dataclass(frozen=True)
class ForestPlotSpec:
    """Renderable forest plot model: study rows, pooled row, axis range."""

    rows: tuple[ForestRow, ...]
    pooled_d: float
    pooled_ci: Interval
    axis_lo: float
    axis_hi: float


@dataclass(frozen=True)
class FunnelData:
    """Effect-vs-precision points with the pooled reference position.

    The y axis is the standard error and is conventionally plotted inverted:
    smaller se (higher precision) sits higher on the plot.
    """

    points: tuple[tuple[float, float], ...]
    pooled_d: float


def _effects_and_weights(studies: Sequence[StudySummary]) -> tuple[list[float], list[float]]:
    ds: list[float] = []
    weights: list[float] = []
    for s in studies:
        d, se = s.effect()
        ds.append(d)
        weights.append(1.0 / (se * se))
    return ds, weights


def fixed_effect_pool(studies: Sequence[StudySummary], level: float = 0.95) -> MetaResult:
    """Inverse-variance fixed-effects pooling of standardized mean differences.

    pooled_d = sum(w_i * d_i) / sum(w_i) with w_i = 1/se_i^2;
    the confidence interval is pooled_d +/- z * pooled_se.
    """
    if not studies:
        raise InsufficientDataError("need at least one study to pool")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    ds, weights = _effects_and_weights(studies)
    w_total = sum(weights)
    pooled_d = sum(w * d for d, w in zip(ds, weights)) / w_total
    pooled_se = math.sqrt(1.0 / w_total)
    z = normal_quantile((1.0 + level) / 2.0)
    ci = Interval(pooled_d - z * pooled_se, pooled_d + z * pooled_se, level)
    q = sum(w * (d - pooled_d) ** 2 for d, w in zip(ds, weights))
    df = len(ds) - 1
    i2 = max(0.0, (q - df) / q) if q > 0 and df >= 1 else 0.0
    return MetaResult(
        pooled_d=pooled_d,
        pooled_se=pooled_se,
        ci=ci,
        weights=tuple(weights),
        q_statistic=q,
        i_squared=i2,
    )


def forest_model(studies: Sequence[StudySummary], pooled: MetaResult) -> ForestPlotSpec:
    """Forest plot model: one row per study in input order plus the pooled row.

    Marker areas are proportional to the inverse-variance weights; the axis
    range covers every confidence interval with 5% padding.
    """
    if not studies:
        raise InsufficientDataError("need at least one study for a forest model")
    level = pooled.ci.level
    z = normal_quantile((1.0 + level) / 2.0)
    ds, weights = _effects_and_weights(studies)
    w_max = max(weights)
    rows = tuple(
        ForestRow(
            label=s.label,
            d=d,
            ci=Interval(d - z * math.sqrt(1.0 / w), d + z * math.sqrt(1.0 / w), level),
            marker_area=w / w_max,
        )
        for s, d, w in zip(studies, ds, weights)
    )
    lows = [r.ci.lower for r in rows] + [pooled.ci.lower]
    highs = [r.ci.upper for r in rows] + [pooled.ci.upper]
    lo, hi = min(lows), max(highs)
    pad = 0.05 * (hi - lo) if hi > lo else 0.5
    return ForestPlotSpec(
        rows=rows,
        pooled_d=pooled.pooled_d,
        pooled_ci=pooled.ci,
        axis_lo=lo - pad,
        axis_hi=hi + pad,
    )


def funnel_data(studies: Sequence[StudySummary]) -> FunnelData:
    """One (d, se) point per study with the pooled d as the reference line."""
    if not studies:
        raise InsufficientDataError("need at least one study for funnel data")
    points = []
    for s in studies:
        d, se = s.effect()
        points.append((d, se))
    pooled = fixed_effect_pool(studies)
    return FunnelData(points=tuple(points), pooled_d=pooled.pooled_d)
