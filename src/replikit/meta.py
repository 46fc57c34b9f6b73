"""Studies, their file format and fixed-effects pooling.

A ``StudySummary`` is one study: two arm summaries or a given (d, se). A
``StudyTable`` holds studies as the ten columns of the study CSV.
``parse_study_csv`` builds one column by column, with the row checks of
``SampleSummary`` and ``StudySummary``; a file that fails them takes the row
loop, which builds nothing and names the first fault with its row number.
``serialize_study_csv`` writes any study sequence from its columns.
``fixed_effect_pool`` pools standardized mean differences by inverse
variance, with heterogeneity statistics; ``replikit.svg`` plots the result.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
from dataclasses import dataclass, fields
from functools import reduce
from itertools import islice
from operator import add
from typing import Sequence

from .effect_size import Interval, _check_level, _d_se
from .errors import DomainError, InsufficientDataError, ParseError
from .stats_core import SampleSummary, _check_arm, _square, normal_quantile


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
    form does not use, filled with checked rows by ``parse_study_csv`` or
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
    def of(cls, studies: Sequence[StudySummary]) -> StudyTable:
        """``studies`` as a table: a table as it is, else one row per study."""
        if isinstance(studies, StudyTable):
            return studies
        rows = [
            (s.study_id, s.label, s.n1, s.n2, None, None, None, None, s.d, s.se) if s.arm1 is None
            else (s.study_id, s.label, s.arm1.n, s.arm2.n, s.arm1.mean, s.arm2.mean,
                  s.arm1.sd, s.arm2.sd, None, None)
            for s in studies
        ]
        return cls(*(zip(*rows) if rows else ((),) * 10))

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


STUDY_COLUMNS = tuple(f.name for f in fields(StudyTable))


def _integral(value: float) -> int:
    n = int(value)
    if n != value:
        raise ValueError
    return n


def _parse_numbers(row: list[str], row_num: int) -> list[float | int | None]:
    """The numeric cells of a data row, ``None`` where blank, parsed one by
    one so that the first bad cell in column order is the one reported."""
    values = []
    for column, text in zip(STUDY_COLUMNS[2:], row[2:]):
        text = text.strip()
        as_int = column in ("n1", "n2")
        try:
            values.append(None if not text else _integral(float(text)) if as_int else float(text))
        except (ValueError, OverflowError):
            kind = "an integer" if as_int else "a number"
            raise ParseError(
                f"row {row_num}: column {column!r} must be {kind}, got {text!r}"
            ) from None
    return values


def _column_table(rows: list[list[str]]) -> StudyTable | None:
    """The data rows as a table, read and checked by column; None at any irregularity."""
    rows = [row for row in rows if "".join(row).strip()]
    if not rows:
        return StudyTable.of([])
    if set(map(len, rows)) != {len(STUDY_COLUMNS)}:
        return None
    # Every cell is stripped, and read as _parse_numbers reads it.
    ids, labels, *cells = (tuple(map(str.strip, column)) for column in zip(*rows))
    if not all(ids):
        return None
    try:
        n1, n2, m1, m2, s1, s2, d, se = [[float(t) if t else None for t in c] for c in cells]
        n1, n2 = ([None if x is None else _integral(x) for x in n] for n in (n1, n2))
        # The library's checks of a row's form: arms where mean1 is given and not both d and
        # se, else (d, se) and no arm measure. A number its form needs but lacks raises TypeError.
        for i, a, b, x, y, s, t, e, f in zip(ids, n1, n2, m1, m2, s1, s2, d, se):
            if x is not None and (e is None or f is None):
                _check_arm(a, x, s)
                _check_arm(b, y, t)
            elif x is y is s is t is None and e is not None and f is not None:
                _check_study(i, e, f, a, b)
            else:
                return None
    except (ValueError, OverflowError, TypeError):
        return None
    # A d or se beside complete arms is dropped.
    d, se = ([x if m is None else None for m, x in zip(m1, c)] for c in (d, se))
    return StudyTable(ids, labels, *map(tuple, (n1, n2, m1, m2, s1, s2, d, se)))


def parse_study_csv(content: str | bytes) -> StudyTable:
    """Parse the study CSV schema into a column table of study summaries.

    The input form of each row (raw arm summaries vs precomputed d/se) is
    auto-detected from the populated columns; row numbers are 1-based over
    data rows and reported in every error. A leading UTF-8 byte-order mark,
    as spreadsheet exports write, is dropped.
    """
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"study file is not valid UTF-8: {exc}") from None
    elif content.startswith("\ufeff"):
        content = content[1:]
    reader = csv.reader(_stdio.StringIO(content))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"study file is not valid CSV at line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError("study file is empty (no header row)")
    header = [h.strip() for h in rows[0]]
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

    table = _column_table(rows[1:])  # the one builder; None at a fault, which the loop names
    if table is not None:
        return table
    for row_num, row in enumerate(islice(rows, 1, None), start=1):
        if not "".join(row).strip():
            continue
        if len(row) != len(STUDY_COLUMNS):
            raise ParseError(f"row {row_num}: expected {len(STUDY_COLUMNS)} fields, got {len(row)}")
        study_id = row[0].strip()
        if not study_id:
            raise ParseError(f"row {row_num}: column 'study_id' must not be empty")
        n1, n2, mean1, mean2, sd1, sd2, d, se = cells = _parse_numbers(row, row_num)
        arms_complete = None not in cells[:6]
        direct_complete = d is not None and se is not None
        if arms_complete and direct_complete:
            raise ParseError(
                f"row {row_num}: ambiguous form, both arm summaries and d/se are populated"
            )
        if not (arms_complete or direct_complete):
            present = [c for c, v in zip(STUDY_COLUMNS[2:], cells) if v is not None]
            raise ParseError(
                f"row {row_num}: no complete input form (populated: {present or 'nothing'}); "
                f"give all of {list(STUDY_COLUMNS[2:8])} or both of {list(STUDY_COLUMNS[8:])}"
            )
        if direct_complete:
            stray = [c for c, v in zip(STUDY_COLUMNS[4:8], cells[2:6]) if v is not None]
            if stray:
                raise ParseError(
                    f"row {row_num}: columns {stray} populated but the arm form is incomplete"
                )
        try:
            if arms_complete:
                _check_arm(n1, mean1, sd1)
                _check_arm(n2, mean2, sd2)
            else:
                _check_study(study_id, d, se, n1, n2)
        except DomainError as exc:
            raise ParseError(f"row {row_num}: {exc}") from None
    raise ParseError("study file rejected, but no row check names a fault")


def serialize_study_csv(studies: Sequence[StudySummary]) -> str:
    """Exact inverse of parse_study_csv on valid study sequences, written
    from the columns of ``StudyTable.of(studies)``."""
    table = StudyTable.of(studies)
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(STUDY_COLUMNS)
    writer.writerows(zip(*(
        ["" if x is None else str(x) for x in getattr(table, column)] for column in STUDY_COLUMNS
    )))
    return buf.getvalue()


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
    _check_level(level)
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
