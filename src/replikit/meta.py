"""Fixed-effects inverse-variance pooling of standardized mean differences and
heterogeneity statistics. Pooling takes any sequence of ``StudySummary`` and
reads it as a ``StudyTable`` of columns. ``replikit.svg`` plots the result."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

from .effect_size import Interval, _d_se
from .errors import DomainError, InsufficientDataError
from .stats_core import SampleSummary, _square, normal_quantile


def _check_study(study_id: str, d: float | None, se: float | None, n1, n2) -> None:
    """Checks of a given (d, se) and of given sample sizes, shared with the parser."""
    if d is not None:
        if not math.isfinite(d):
            raise DomainError(f"study {study_id!r}: d must be finite")
        # se^2 then lies in [2^-1022, 2^1022], normal doubles, so the
        # pooling weight 1/se^2 is finite and positive.
        if not 2.0**-511 <= se <= 2.0**511:
            raise DomainError(
                f"study {study_id!r}: se must be in [2^-511, 2^511], where its "
                f"weight 1/se^2 is finite and > 0; got {se!r}"
            )
    if (n1 is not None and n1 < 2) or (n2 is not None and n2 < 2):
        raise DomainError(f"study {study_id!r}: n1 and n2 must be >= 2, got {n1} and {n2}")


@dataclass(frozen=True)
class StudySummary:
    """One study's input: either two arm summaries or a precomputed (d, se).

    Exactly one of the two forms must be present. ``n1``/``n2`` may accompany
    only the (d, se) form, when the sample sizes are known.
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
        if arms_complete and (self.n1 is not None or self.n2 is not None):
            raise DomainError(f"study {self.study_id!r}: n1 and n2 go with d and se, not arms")
        if has_arms and not arms_complete:
            raise DomainError(f"study {self.study_id!r}: only one arm summary given")
        if has_direct and not direct_complete:
            raise DomainError(f"study {self.study_id!r}: d and se must be given together")
        if not arms_complete and not direct_complete:
            raise DomainError(f"study {self.study_id!r}: no complete input form")
        _check_study(self.study_id, self.d, self.se, self.n1, self.n2)


@dataclass(frozen=True, eq=False)
class StudyTable(Sequence[StudySummary]):
    """The ten study-CSV columns in file order, ``None`` for a cell the row's
    form does not use, filled with checked rows by ``io.parse_study_csv`` or
    ``StudyTable.of``; a row is in the arm form when its ``mean1`` is given.
    As a sequence it yields each row's ``StudySummary``, built on demand, and
    equals a list of equal studies."""

    study_id: tuple[str, ...]
    label: tuple[str, ...]
    n1: tuple[int | None, ...]
    n2: tuple[int | None, ...]
    mean1: tuple[float | None, ...]
    mean2: tuple[float | None, ...]
    sd1: tuple[float | None, ...]
    sd2: tuple[float | None, ...]
    d: tuple[float | None, ...]
    se: tuple[float | None, ...]

    @classmethod
    def _from_rows(cls, rows: Sequence[tuple]) -> StudyTable:
        """The table of rows given as ten-value tuples in column order."""
        return cls(*(zip(*rows) if rows else ((),) * 10))

    @classmethod
    def of(cls, studies: Sequence[StudySummary]) -> StudyTable:
        """``studies`` as a table: a table as it is, else one row per study."""
        if isinstance(studies, StudyTable):
            return studies
        return cls._from_rows([
            (s.study_id, s.label, s.n1, s.n2, None, None, None, None, s.d, s.se) if s.arm1 is None
            else (s.study_id, s.label, s.arm1.n, s.arm2.n, s.arm1.mean, s.arm2.mean,
                  s.arm1.sd, s.arm2.sd, None, None)
            for s in studies
        ])

    def __len__(self) -> int:
        return len(self.study_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        head = (self.study_id[i], self.label[i])
        if self.mean1[i] is None:
            return StudySummary(*head, d=self.d[i], se=self.se[i], n1=self.n1[i], n2=self.n2[i])
        arm1 = SampleSummary(self.n1[i], self.mean1[i], self.sd1[i])
        return StudySummary(*head, arm1, SampleSummary(self.n2[i], self.mean2[i], self.sd2[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, StudyTable)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def effects(self) -> tuple[tuple[float, float], ...]:
        """(d, se) per row, in row order, from the arms for arm-form rows."""
        columns = (self.n1, self.n2, self.mean1, self.mean2, self.sd1, self.sd2, self.d, self.se)
        return tuple(
            (float(d), float(se)) if m1 is None else _d_se(n1, m1, s1, n2, m2, s2)
            for n1, n2, m1, m2, s1, s2, d, se in zip(*columns)
        )


@dataclass(frozen=True)
class MetaResult:
    """Pooled estimate with per-study (d, se) effects, weights, labels and
    heterogeneity statistics; the per-study tuples follow input order."""

    pooled_d: float
    pooled_se: float
    ci: Interval
    weights: tuple[float, ...]
    q_statistic: float
    i_squared: float
    effects: tuple[tuple[float, float], ...]
    labels: tuple[str, ...]


def fixed_effect_pool(studies: Sequence[StudySummary], level: float = 0.95) -> MetaResult:
    """Inverse-variance fixed-effects pooling of standardized mean differences.

    pooled_d = sum(w_i * d_i) / sum(w_i) with w_i = 1/se_i^2;
    the confidence interval is pooled_d +/- z * pooled_se.
    """
    if not studies:
        raise InsufficientDataError("need at least one study to pool")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    table = StudyTable.of(studies)
    effects = table.effects()
    ds = [d for d, _ in effects]
    weights = tuple(1.0 / (se * se) for _, se in effects)
    # Left-to-right folds: from Python 3.12 the builtin ``sum`` compensates
    # float rounding, which would make the result depend on the version.
    w_total = reduce(add, weights, 0.0)
    pooled_d = reduce(add, (w * d for d, w in zip(ds, weights)), 0.0) / w_total
    q = reduce(add, (w * _square(d - pooled_d) for d, w in zip(ds, weights)), 0.0)
    if not (math.isfinite(w_total) and math.isfinite(pooled_d) and math.isfinite(q)):
        raise DomainError("pooled d, se or Q is not finite; the studies are too large to pool")
    pooled_se = math.sqrt(1.0 / w_total)
    z = normal_quantile((1.0 + level) / 2.0)
    ci = Interval(pooled_d - z * pooled_se, pooled_d + z * pooled_se, level)
    df = len(ds) - 1
    i2 = max(0.0, (q - df) / q) if q > 0 and df >= 1 else 0.0
    return MetaResult(
        pooled_d=pooled_d,
        pooled_se=pooled_se,
        ci=ci,
        weights=weights,
        q_statistic=q,
        i_squared=i2,
        effects=effects,
        labels=table.label,
    )
