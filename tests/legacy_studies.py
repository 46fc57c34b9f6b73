"""A frozen copy of the row-object study path that the column parser replaced.

``parse_study_csv`` built one ``StudySummary`` (and two ``SampleSummary``
objects) per row; pooling derived (d, se) per study through ``cohens_d``.
The differential tests in ``test_study_table.py`` hold today's code to the
same floats, bit for bit, and to the same exception class and message.
Only names whose code did not change are imported from ``replikit``.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

from replikit.effect_size import EffectSize, Interval, standard_error_d
from replikit.errors import DegenerateSampleError, DomainError, InsufficientDataError, ParseError
from replikit.stats_core import SampleSummary, normal_quantile

STUDY_COLUMNS = ("study_id", "label", "n1", "n2", "mean1", "mean2", "sd1", "sd2", "d", "se")

_ARM_COLUMNS = ("n1", "n2", "mean1", "mean2", "sd1", "sd2")
_MEASURE_COLUMNS = ("mean1", "mean2", "sd1", "sd2")
_DIRECT_COLUMNS = ("d", "se")
_TINY_SD = 2.0**-511


def cohens_d(arm1: SampleSummary, arm2: SampleSummary) -> EffectSize:
    sd1, sd2, scale = arm1.sd, arm2.sd, 0
    if max(sd1, sd2) < _TINY_SD:
        scale = math.frexp(max(sd1, sd2))[1]
        sd1, sd2 = math.ldexp(sd1, -scale), math.ldexp(sd2, -scale)
    try:
        var_sum = (arm1.n - 1) * sd1**2 + (arm2.n - 1) * sd2**2
    except OverflowError:
        var_sum = math.inf
    sp = math.ldexp(math.sqrt(var_sum / (arm1.n + arm2.n - 2)), scale)
    if not math.isfinite(sp):
        raise DomainError("pooled standard deviation is not finite; d undefined")
    if sp == 0.0:
        raise DegenerateSampleError("pooled standard deviation is zero; d undefined")
    d = (arm1.mean - arm2.mean) / sp
    se = standard_error_d(d, arm1.n, arm2.n)
    return EffectSize(d=d, se=se, n1=arm1.n, n2=arm2.n)


@dataclass(frozen=True)
class StudySummary:
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
        if self.arm1 is not None and self.arm2 is not None:
            e = cohens_d(self.arm1, self.arm2)
            return e.d, e.se
        return float(self.d), float(self.se)


@dataclass(frozen=True)
class MetaResult:
    pooled_d: float
    pooled_se: float
    ci: Interval
    weights: tuple[float, ...]
    q_statistic: float
    i_squared: float
    effects: tuple[tuple[float, float], ...]


def _parse_number(raw: str, row_num: int, column: str, as_int: bool = False) -> float | int | None:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        value = float(raw)
        if as_int:
            if value != int(value):
                raise ValueError
            return int(value)
        return value
    except (ValueError, OverflowError):
        kind = "an integer" if as_int else "a number"
        raise ParseError(f"row {row_num}: column {column!r} must be {kind}, got {raw!r}") from None


def parse_study_csv(content: str | bytes) -> list[StudySummary]:
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"study file is not valid UTF-8: {exc}") from None
    reader = csv.reader(_stdio.StringIO(content))
    try:
        rows = iter(list(reader))
    except csv.Error as exc:
        raise ParseError(f"study file is not valid CSV at line {reader.line_num}: {exc}") from None
    try:
        header = next(rows)
    except StopIteration:
        raise ParseError("study file is empty (no header row)") from None
    header = [h.strip() for h in header]
    if header != list(STUDY_COLUMNS):
        missing = [c for c in STUDY_COLUMNS if c not in header]
        extra = [c for c in header if c not in STUDY_COLUMNS]
        detail = []
        if missing:
            detail.append(f"missing columns {missing}")
        if extra:
            detail.append(f"unknown columns {extra}")
        raise ParseError(
            "bad header: expected " + ",".join(STUDY_COLUMNS)
            + ("; " + "; ".join(detail) if detail else "; wrong column order")
        )

    studies: list[StudySummary] = []
    for row_num, row in enumerate(rows, start=1):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(STUDY_COLUMNS):
            raise ParseError(f"row {row_num}: expected {len(STUDY_COLUMNS)} fields, got {len(row)}")
        rec = dict(zip(STUDY_COLUMNS, row))
        study_id = rec["study_id"].strip()
        label = rec["label"].strip()
        if not study_id:
            raise ParseError(f"row {row_num}: column 'study_id' must not be empty")
        values = {
            col: _parse_number(rec[col], row_num, col, as_int=col in ("n1", "n2"))
            for col in STUDY_COLUMNS[2:]
        }
        arms_present = [c for c in _ARM_COLUMNS if values[c] is not None]
        direct_present = [c for c in _DIRECT_COLUMNS if values[c] is not None]
        arms_complete = len(arms_present) == len(_ARM_COLUMNS)
        direct_complete = len(direct_present) == len(_DIRECT_COLUMNS)
        try:
            if arms_complete and direct_complete:
                raise ParseError(
                    f"row {row_num}: ambiguous form, both arm summaries and d/se are populated"
                )
            if arms_complete:
                study = StudySummary(
                    study_id=study_id,
                    label=label,
                    arm1=SampleSummary(n=values["n1"], mean=values["mean1"], sd=values["sd1"]),
                    arm2=SampleSummary(n=values["n2"], mean=values["mean2"], sd=values["sd2"]),
                )
            elif direct_complete:
                stray = [c for c in _MEASURE_COLUMNS if values[c] is not None]
                if stray:
                    raise ParseError(
                        f"row {row_num}: columns {stray} populated but the arm form is incomplete"
                    )
                study = StudySummary(
                    study_id=study_id,
                    label=label,
                    d=values["d"],
                    se=values["se"],
                    n1=values["n1"],
                    n2=values["n2"],
                )
            else:
                present = arms_present + direct_present
                raise ParseError(
                    f"row {row_num}: no complete input form (populated: {present or 'nothing'}); "
                    f"give all of {list(_ARM_COLUMNS)} or both of {list(_DIRECT_COLUMNS)}"
                )
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"row {row_num}: {exc}") from None
        studies.append(study)
    return studies


def fixed_effect_pool(studies: Sequence[StudySummary], level: float = 0.95) -> MetaResult:
    if not studies:
        raise InsufficientDataError("need at least one study to pool")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    effects = tuple(s.effect() for s in studies)
    ds = [d for d, _ in effects]
    weights = tuple(1.0 / (se * se) for _, se in effects)
    w_total = reduce(add, weights, 0.0)
    pooled_d = reduce(add, (w * d for d, w in zip(ds, weights)), 0.0) / w_total
    try:
        q = reduce(add, (w * (d - pooled_d) ** 2 for d, w in zip(ds, weights)), 0.0)
    except OverflowError:
        q = math.inf
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
    )
