"""Study-file parsing and the one text/csv/json renderer, in pure Python.

Each command hands ``render`` its config echo and its result as ordered
tables; per-type rules decide how a value looks in each format. Renders are
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
from typing import Mapping, Sequence

from .effect_size import EffectCategory, category_label
from .errors import ParseError, UnsupportedFormatError
from .meta import StudySummary
from .stats_core import SampleSummary


class OutputFormat(Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"
    SVG = "svg"


STUDY_COLUMNS = ("study_id", "label", "n1", "n2", "mean1", "mean2", "sd1", "sd2", "d", "se")

_ARM_COLUMNS = ("n1", "n2", "mean1", "mean2", "sd1", "sd2")
_MEASURE_COLUMNS = ("mean1", "mean2", "sd1", "sd2")
_DIRECT_COLUMNS = ("d", "se")


def fmt4(x: float) -> str:
    """4-significant-digit text rendering."""
    return f"{x:.4g}"


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
    """Parse the study CSV schema into study summaries.

    The input form of each row (raw arm summaries vs precomputed d/se) is
    auto-detected from the populated columns; row numbers are 1-based over
    data rows and reported in every error.
    """
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


def _num_repr(x: float | int | None) -> str:
    return "" if x is None else repr(x)


def serialize_study_csv(studies: Sequence[StudySummary]) -> str:
    """Exact inverse of parse_study_csv on valid study sequences."""
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(STUDY_COLUMNS)
    for s in studies:
        if s.arm1 is not None and s.arm2 is not None:
            row = [
                s.study_id, s.label,
                _num_repr(s.arm1.n), _num_repr(s.arm2.n),
                _num_repr(s.arm1.mean), _num_repr(s.arm2.mean),
                _num_repr(s.arm1.sd), _num_repr(s.arm2.sd),
                "", "",
            ]
        else:
            row = [
                s.study_id, s.label,
                _num_repr(s.n1), _num_repr(s.n2),
                "", "", "", "",
                _num_repr(s.d), _num_repr(s.se),
            ]
        writer.writerow(row)
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
    if fmt is OutputFormat.SVG:
        raise UnsupportedFormatError("svg output is only available for plot commands")
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
