"""The one text/csv/json renderer, in pure Python.

Each table command (effect, simulate, pi, meta) hands ``render`` its
``--format`` string, which the parser has already held to text, csv or json,
its config echo and its result as ordered tables; per-type rules decide how a
value looks in each format. The plots are SVG only (``replikit.svg``). Renders
are pure functions of their inputs: no timestamps, no locale formatting,
decimal point always ``.``. Text mode prints 4 significant digits; csv and
json carry full precision. The batch export ``batch_to_csv`` lives with the
engine in ``replikit.simulation``, so this module loads no numpy.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .effect_size import EffectCategory, category_label


def fmt4(x: float) -> str:
    """4-significant-digit text rendering."""
    return f"{x:.4g}"


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


def _cell(value: object, fmt: str) -> object:
    """One key or value as ``fmt`` shows it."""
    if fmt == "json":
        if isinstance(value, EffectCategory):
            return value.value
        return list(value) if isinstance(value, tuple) else value
    text = fmt == "text"
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
    fmt: str, config: Mapping[str, object], tables: Sequence[Table]
) -> tuple[str, str]:
    """A command's result as (stdout, stderr) in ``fmt``.

    Text prints the config echo as comment lines above the tables, csv sends
    it to stderr, and json carries it under a ``"config"`` key.
    """
    if fmt == "json":
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
        if fmt == "csv":
            buf = _stdio.StringIO()
            csv.writer(buf).writerows([[k for k, _ in rows], [v for _, v in rows]])
            blocks.append(buf.getvalue())
        else:
            if table.title is not None:
                rows.insert(0, table.title)
            width = max(len(k) for k, _ in rows)
            blocks.append("".join(f"{k.ljust(width)}  {v}\n" for k, v in rows))
    body = "\n".join(blocks)
    if fmt == "csv":
        return body, config_lines(config)
    return config_lines(config) + body, ""
