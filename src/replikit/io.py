"""Study-file parsing and the one text/csv/json renderer, in pure Python.

``parse_study_csv`` reads a study file into a ``meta.StudyTable`` of
columns in one pass, with the row checks of ``SampleSummary`` and
``StudySummary`` and their row-numbered messages. ``serialize_study_csv``
writes any study sequence from the columns of its table.

Each table command (effect, simulate, pi, meta) hands ``render`` its config
echo and its result as ordered tables; per-type rules decide how a value
looks in each format. The plots are SVG only (``replikit.svg``). Renders are
pure functions of their inputs: no timestamps, no locale formatting,
decimal point always ``.``. Text mode prints 4 significant digits; csv and
json carry full precision. The batch export ``batch_to_csv`` lives with
the engine in ``replikit.simulation``, so this module loads no numpy.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Mapping, Sequence

from .effect_size import EffectCategory, category_label
from .errors import DomainError, ParseError, UnsupportedFormatError
from .meta import StudySummary, StudyTable, _check_study
from .stats_core import _check_arm


class OutputFormat(Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


STUDY_COLUMNS = ("study_id", "label", "n1", "n2", "mean1", "mean2", "sd1", "sd2", "d", "se")


def fmt4(x: float) -> str:
    """4-significant-digit text rendering."""
    return f"{x:.4g}"


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

    records = []
    for row_num, row in enumerate(islice(rows, 1, None), start=1):
        if not "".join(row).strip():
            continue
        if len(row) != len(STUDY_COLUMNS):
            raise ParseError(f"row {row_num}: expected {len(STUDY_COLUMNS)} fields, got {len(row)}")
        study_id = row[0].strip()
        if not study_id:
            raise ParseError(f"row {row_num}: column 'study_id' must not be empty")
        # float() ignores padding itself. A whitespace-only or bad cell falls
        # back to the cell-by-cell parse, which strips and names the first bad cell.
        try:
            cells = [float(text) if text else None for text in row[2:]]
            cells[:2] = [x if x is None else _integral(x) for x in cells[:2]]
        except (ValueError, OverflowError):
            cells = _parse_numbers(row, row_num)
        n1, n2, mean1, mean2, sd1, sd2, d, se = cells
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
                cells[6:] = None, None  # a d or se beside complete arms is ignored
            else:
                _check_study(study_id, d, se, n1, n2)
        except DomainError as exc:
            raise ParseError(f"row {row_num}: {exc}") from None
        records.append((study_id, row[1].strip(), *cells))
    return StudyTable._from_rows(records)


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


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class Percent(float):
    """A proportion shown as a percentage in text and csv, as is in json."""


@dataclass(frozen=True)
class Table:
    """One block of a command's result: ordered (key, value) rows.

    ``title`` is a header row shown in text only. In json the rows nest under
    ``json_path``; ``name`` is a leading row in text and csv whose value
    becomes the last json nesting key instead.
    """

    rows: Sequence[tuple[object, object]]
    title: tuple[str, str] | None = None
    json_path: tuple[str, ...] = ()
    name: tuple[str, str] | None = None


def config_lines(config: Mapping[str, object]) -> str:
    """The config echo as ``# key value`` comment lines."""
    return "".join(f"# {key} {value}\n" for key, value in config.items())


def _cell(value: object, fmt: OutputFormat) -> object:
    """One key or value as ``fmt`` shows it."""
    if not isinstance(value, (str, int, float, tuple, EffectCategory)):
        raise UnsupportedFormatError(f"cannot render a value of type {type(value).__name__}")
    if fmt is OutputFormat.JSON:
        if isinstance(value, EffectCategory):
            return value.value
        return list(value) if isinstance(value, tuple) else value
    text = fmt is OutputFormat.TEXT
    if isinstance(value, bool):
        return "Y" if value else "N"
    if isinstance(value, EffectCategory):
        return category_label(value) if text else value.value
    if isinstance(value, Percent):
        return fmt4(100.0 * value) + "%" if text else repr(100.0 * value)
    if isinstance(value, float):
        return fmt4(value) if text else repr(value)
    if isinstance(value, tuple):
        return " ".join(map(fmt4, value)) if text else ";".join(map(repr, value))
    return str(value)


def render(
    fmt: OutputFormat, config: Mapping[str, object], tables: Sequence[Table]
) -> tuple[str, str]:
    """A command's result as (stdout, stderr) in ``fmt``.

    Text prints the config echo as comment lines above the tables, csv sends
    it to stderr, and json carries it under a ``"config"`` key.
    """
    if fmt is OutputFormat.JSON:
        payload: dict[str, object] = {"config": dict(config)}
        for table in tables:
            node = payload
            path = table.json_path + (() if table.name is None else (table.name[1],))
            for key in path:
                node = node.setdefault(key, {})
            node.update((_cell(k, fmt), _cell(v, fmt)) for k, v in table.rows)
        return json.dumps(payload, indent=2) + "\n", ""
    blocks = []
    for table in tables:
        rows = [(_cell(k, fmt), _cell(v, fmt)) for k, v in table.rows]
        if table.name is not None:
            rows.insert(0, table.name)
        if fmt is OutputFormat.CSV:
            buf = _stdio.StringIO()
            csv.writer(buf).writerows([[k for k, _ in rows], [v for _, v in rows]])
            blocks.append(buf.getvalue())
        else:
            if table.title is not None:
                rows.insert(0, table.title)
            width = max(len(k) for k, _ in rows)
            blocks.append("".join(f"{k.ljust(width)}  {v}\n" for k, v in rows))
    body = "\n".join(blocks)
    if fmt is OutputFormat.CSV:
        return body, config_lines(config)
    return config_lines(config) + body, ""
