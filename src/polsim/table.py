"""The CSV tables and JSON documents polsim reads and writes.

A table format is a tuple of (column name, kind) pairs, defined once next to
the code that owns the data.  `kind` turns a cell's text into a value: float,
str, or posix_from_iso for an ISO 8601 UTC timestamp.  A table is a header
line of the column names, then one comma-separated row per record, numbers
written with repr so they read back bit for bit and timestamps a column at a
time by iso_from_posix.  Every reader of an input file raises ParseError.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59.999999Z in POSIX microseconds
_FIRST_US, _LAST_US = -62_135_596_800_000_000, 253_402_300_799_999_999


class ParseError(ValueError):
    """An input-file error at a 1-based line (0: the whole file) and, when
    known, column: 'line N[, column C]: message'."""

    def __init__(self, line_no, message, column=None):
        where = f"line {line_no}" if column is None else f"line {line_no}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line_no, self.column = line_no, column


def finite_float(text):
    """float(text), refusing NaN and inf with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def check_degrees(what, degrees):
    """Raise ValueError unless the angle `degrees`, or each angle of an array
    of them, lies in [-360, 360]; one Python number costs no numpy call."""
    for value in [degrees] if type(degrees) in (int, float) else np.ravel(degrees).tolist():
        if not -360.0 <= value <= 360.0:
            raise ValueError(f"{what} must be in [-360, 360] degrees, got {value!r}")


def iso_from_posix(t):
    """ISO 8601 UTC text ('YYYY-MM-DDTHH:MM:SS.ffffffZ') of each POSIX time in `t`.

    Returns a numpy str array shaped like `t`.  The microsecond is the
    fraction of a second times 1e6 rounded half to even, the rule of
    datetime.fromtimestamp.  A time that is not finite or not in years 1 to
    9999 after rounding raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    frac, whole = np.modf(t)
    bad = ~(np.abs(whole) < 1e12)  # nan and inf too; keeps the int64 below exact
    if not bad.any():
        us = whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)
        bad = (us < _FIRST_US) | (us > _LAST_US)
    if bad.any():
        raise ValueError(f"timestamp {float(t[bad][0])!r} is not in years 1 to 9999")
    return np.datetime_as_string(us.astype("datetime64[us]"), unit="us", timezone="UTC")


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
    cells = [iso_from_posix(col).tolist() if kind is posix_from_iso
             else map(str, np.asarray(col).tolist()) for (_, kind), col in zip(fmt, columns)]
    lines = [",".join(name for name, _ in fmt), *map(",".join, zip(*cells))]
    if comment is not None:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def read_table(text, fmt, fill=()):
    """Rows of `fmt` in `text` as tuples of converted cells.

    Blank lines, '#' lines and header lines are skipped.  The last len(fill)
    columns may be missing from a row and then take the `fill` values.  Every
    error is a ParseError at the 1-based line.
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
            raise ParseError(line_no, f"expected {expected} columns, got {len(cells)}")
        try:
            row = tuple([kind(cell) for kind, cell in zip(kinds, cells)])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        rows.append(row + fill[len(cells) - least:])
    return rows


def json_text(payload):
    """A JSON document: sorted keys, 2-space indent, NaN and inf refused."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
