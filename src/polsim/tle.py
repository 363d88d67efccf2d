"""Two-line element set parsing and formatting.

Lines are exactly 69 characters; the final digit is a mod-10 checksum of the
ASCII digits (plus one per '-') in the first 68 columns.  `_LAYOUT` is the one
description of the columns: `parse_tle` reads each field from it and
`format_tle` writes each field into it; every column between two fields must
be a space.  Numeric fields are fixed-column fixed-precision decimals; the
parser rejects records whose fields are not already in the canonical form
`format_tle` writes, which is what makes parse -> format byte-identical.  The
three implied-decimal drag fields on line 1 admit several encodings of the same
value and a two-body model reads none of them, so they are checked for shape
and kept as their raw column content.  `parse_tle` strips the name line, so
`format_tle` refuses a name that is empty, padded or more than one line.
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timedelta, timezone

from .frozen import frozen
from .table import ParseError


def line_checksum(line):
    """Mod-10 sum of the ASCII digits in the first 68 columns, counting '-' as 1."""
    total = 0
    for ch in line[:68]:
        if "0" <= ch <= "9":  # str.isdigit also takes '²', which int refuses
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


@frozen
class TleRecord:
    """One parsed TLE: every field of both lines, the name line if any."""
    name: str | None
    satellite_number: str  # kept verbatim
    classification: str
    intl_designator: str  # kept verbatim
    epoch_year: int  # full 4-digit year
    epoch_day: float  # fractional day of year, 1-based
    ndot_raw: str  # dn/dt / 2 (rev/day^2), verbatim
    nddot_raw: str  # d2n/dt2 / 6, verbatim (implied decimal)
    bstar_raw: str  # B* drag term, verbatim (implied decimal)
    ephemeris_type: str
    element_set_number: int
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_per_day: float
    rev_number: int

    @property
    def epoch(self):
        """Epoch as a timezone-aware UTC datetime."""
        return datetime(self.epoch_year, 1, 1, tzinfo=timezone.utc) + timedelta(
            days=self.epoch_day - 1.0
        )

    @property
    def epoch_posix(self):
        return self.epoch.timestamp()


_DRAG = re.compile(r"[ +-]\d{5}[+-]\d")  # implied decimal point and exponent: " 12345-4"

# Every field of the two lines in column order: line, first and last column
# (1-based, inclusive), TleRecord field, format and the name in error messages.
# A format string is the spec a number is written in (an int for "d", else a
# float), a pattern is the shape of a drag field, and None keeps text verbatim.
# Each line starts with its number and ends in the checksum; every column
# between two fields is a separator and holds a space.
_LAYOUT = (
    (1, 3, 7, "satellite_number", None, "satellite number"),
    (1, 8, 8, "classification", None, "classification"),
    (1, 10, 17, "intl_designator", None, "international designator"),
    (1, 19, 20, "epoch_year", "02d", "epoch year"),
    (1, 21, 32, "epoch_day", "012.8f", "epoch day"),
    (1, 34, 43, "ndot_raw", re.compile(r"[ +-]\.\d{8}"), "mean-motion-derivative"),
    (1, 45, 52, "nddot_raw", _DRAG, "second-derivative"),
    (1, 54, 61, "bstar_raw", _DRAG, "drag"),
    (1, 63, 63, "ephemeris_type", None, "ephemeris type"),
    (1, 65, 68, "element_set_number", "4d", "element set number"),
    (2, 3, 7, "satellite_number", None, "satellite number"),
    (2, 9, 16, "inclination_deg", "8.4f", "inclination"),
    (2, 18, 25, "raan_deg", "8.4f", "RAAN"),
    (2, 27, 33, "eccentricity", "07d", "eccentricity"),  # decimal point assumed
    (2, 35, 42, "arg_perigee_deg", "8.4f", "argument of perigee"),
    (2, 44, 51, "mean_anomaly_deg", "8.4f", "mean anomaly"),
    (2, 53, 63, "mean_motion_rev_per_day", "11.8f", "mean motion"),
    (2, 64, 68, "rev_number", "5d", "revolution number"),
)


def parse_tle(text):
    """Parse a 2-line (or 3-line, name first) element set into a TleRecord."""
    lines = [ln.rstrip("\r") for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) == 2:
        name = None
    elif len(lines) == 3:
        name = lines.pop(0).strip()
    else:
        raise ParseError(0, f"expected 2 or 3 non-empty lines, got {len(lines)}")

    for line_no, line in enumerate(lines, start=1):
        lead = str(line_no)
        if len(line) != 69:
            raise ParseError(line_no, f"line must be 69 characters, got {len(line)}")
        if line[0] != lead:
            raise ParseError(line_no, f"line must start with {lead!r}, got {line[0]!r}", 1)
        expected = line_checksum(line)
        if line[68] != str(expected):
            raise ParseError(line_no, f"checksum mismatch: expected {expected}, "
                             f"found {line[68]!r}", 69)

    l1, l2 = lines
    if l1[2:7] != l2[2:7]:
        raise ParseError(2, "satellite number differs between lines: "
                         f"{l1[2:7]!r} vs {l2[2:7]!r}", 3)

    fields, read = {"name": name}, {1: 1, 2: 1}  # last column read per line
    for line_no, column, last, field, spec, what in _LAYOUT:
        line = lines[line_no - 1]
        for gap in range(read[line_no] + 1, column):
            if line[gap - 1] != " ":
                raise ParseError(line_no, f"separator must be a space, got {line[gap - 1]!r}", gap)
        read[line_no] = last
        text = fields[field] = line[column - 1:last]
        if isinstance(spec, re.Pattern):
            if not spec.fullmatch(text):
                raise ParseError(line_no, f"malformed {what} field: {text!r}", column)
        elif field == "eccentricity":
            if not (text.isascii() and text.isdigit()):
                raise ParseError(line_no, f"non-numeric eccentricity: {text!r}", column)
            fields[field] = int(text) / 1e7
        elif spec is not None:
            try:
                value = (int if spec.endswith("d") else float)(text)
            except ValueError:
                raise ParseError(line_no, f"non-numeric {what}: {text!r}", column) from None
            if not math.isfinite(value):
                raise ParseError(line_no, f"non-finite {what}: {text!r}", column)
            canonical = format(value, spec)
            if text != canonical:
                raise ParseError(line_no, f"non-canonical {what}: {text!r} "
                                 f"(canonical form is {canonical!r})", column)
            if field == "epoch_year":
                if value < 0:  # how 02d writes -4, but format_tle writes a year's last two digits
                    raise ParseError(line_no, f"epoch year must be two digits, got {text!r}",
                                     column)
                value += 2000 if value < 57 else 1900
            fields[field] = value
    mean_motion = fields["mean_motion_rev_per_day"]
    if not 0.0 < mean_motion < 20.0:
        raise ParseError(2, f"mean motion out of range: {mean_motion!r}", 53)
    return TleRecord(**fields)


def load_tle_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_tle(fh.read())


def format_tle(rec):
    """Render the record back to TLE text (with the name line when present).
    A field too wide or too narrow for its columns, or a name that `parse_tle`
    would not give back, is a ValueError."""
    if rec.name is not None and rec.name.strip().splitlines() != [rec.name]:
        raise ValueError(f"name {rec.name!r} does not round-trip: it must be one non-empty "
                         "line without leading or trailing whitespace")
    bodies = ["1".ljust(68), "2".ljust(68)]
    for line_no, first, last, field, spec, what in _LAYOUT:
        value = getattr(rec, field)
        if field == "epoch_year":
            value %= 100
        elif field == "eccentricity":
            value = int(round(value * 1e7))
        text = format(value, spec if isinstance(spec, str) else "")
        if len(text) != last - first + 1:
            raise ValueError(f"{what} {text!r} does not fit line {line_no}, "
                             f"columns {first}-{last}")
        body = bodies[line_no - 1]
        bodies[line_no - 1] = body[:first - 1] + text + body[last:]
    lines = [] if rec.name is None else [rec.name]
    lines += [body + str(line_checksum(body)) for body in bodies]
    return "\n".join(lines) + "\n"


def make_tle(name, satellite_number, epoch_year, epoch_day, inclination_deg, raan_deg,
             eccentricity, arg_perigee_deg, mean_anomaly_deg, mean_motion_rev_per_day):
    """Convenience constructor for synthetic records: drag terms zeroed,
    unclassified, designator '00000A', revolution 1, element set 999."""
    return TleRecord(
        name=name,
        satellite_number=f"{int(satellite_number):5d}",
        classification="U",
        intl_designator="00000A  ",
        epoch_year=epoch_year,
        epoch_day=epoch_day,
        ndot_raw=" .00000000",
        nddot_raw=" 00000+0",
        bstar_raw=" 00000+0",
        ephemeris_type="0",
        element_set_number=999,
        inclination_deg=inclination_deg,
        raan_deg=raan_deg,
        eccentricity=eccentricity,
        arg_perigee_deg=arg_perigee_deg,
        mean_anomaly_deg=mean_anomaly_deg,
        mean_motion_rev_per_day=mean_motion_rev_per_day,
        rev_number=1,
    )
