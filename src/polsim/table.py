"""The CSV tables and JSON documents polsim reads and writes.

A table format is a tuple of (column name, kind) pairs, defined once next to
the code that owns the data.  `kind` turns a cell's text into a value: float,
str, or posix_from_iso for an ISO 8601 UTC timestamp.  A table is a header
line of the column names, then one comma-separated row per record, numbers
written with repr so they read back bit for bit.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np


def iso_from_posix(t):
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"


def posix_from_iso(text):
    text = text.strip()
    if text.endswith("Z"):
        text = text[:-1]
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def write_table(fmt, columns, comment=None):
    """CSV text of `columns`, one sequence per column of `fmt`, all one length.

    A float or int cell is written as its repr, a timestamp as ISO 8601, text
    verbatim; `comment` becomes a trailing '# ' line.
    """
    cells = [map(iso_from_posix if kind is posix_from_iso else str, np.asarray(col).tolist())
             for (_, kind), col in zip(fmt, columns)]
    lines = [",".join(name for name, _ in fmt), *map(",".join, zip(*cells))]
    if comment is not None:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def read_table(text, fmt, fill=()):
    """Rows of `fmt` in `text` as tuples of converted cells.

    Blank lines, '#' lines and header lines are skipped.  The last len(fill)
    columns may be missing from a row and then take the `fill` values.  Every
    error names the 1-based line.
    """
    kinds = [kind for _, kind in fmt]
    least = len(kinds) - len(fill)
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        cells = [cell.strip() for cell in raw.split(",")]
        if cells == [""] or cells[0].startswith("#") or cells[0] == fmt[0][0]:
            continue
        if not least <= len(cells) <= len(kinds):
            expected = f"{least} to {len(kinds)}" if fill else len(kinds)
            raise ValueError(f"line {line_no}: expected {expected} columns, got {len(cells)}")
        try:
            row = tuple([kind(cell) for kind, cell in zip(kinds, cells)])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        rows.append(row + fill[len(cells) - least:])
    return rows


def json_text(payload):
    """A JSON document: sorted keys, 2-space indent, NaN and inf refused."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
