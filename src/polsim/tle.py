"""Two-line element set parsing and formatting.

Lines are exactly 69 characters; the final digit is a mod-10 checksum of the
digits (plus one per '-') in the first 68 columns.  Orbital fields on line 2
are fixed-column fixed-precision decimals and are re-rendered canonically by
`format_tle`; the parser rejects records whose fields are not already in that
canonical layout, which is what makes parse -> format byte-identical.  The
three implied-decimal drag fields on line 1 admit several encodings of the
same value and a two-body model reads none of them, so they are checked for
shape and kept as their raw column content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone


class TleParseError(ValueError):
    """TLE syntax/semantic error with 1-based line and column location."""

    def __init__(self, line_no, column, message):
        where = f"line {line_no}"
        if column is not None:
            where += f", column {column}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.column = column


def line_checksum(line):
    """Mod-10 sum of digits in the first 68 columns, counting '-' as 1."""
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


@dataclass(frozen=True)
class TleRecord:
    name: str | None
    satellite_number: str  # 5-column field kept verbatim
    classification: str
    intl_designator: str  # 8-column field kept verbatim
    epoch_year: int  # full 4-digit year
    epoch_day: float  # fractional day of year, 1-based
    ndot_raw: str  # columns 34-43 verbatim (dn/dt / 2, rev/day^2)
    nddot_raw: str  # columns 45-52 verbatim (implied decimal)
    bstar_raw: str  # columns 54-61 verbatim (implied decimal)
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


def _field(line_no, line, start, stop, parse, spec, what):
    """Columns start+1..stop of `line` read by `parse` (int or float), which
    must be finite and written exactly as format spec `spec` renders it."""
    text = line[start:stop]
    try:
        value = parse(text)
    except ValueError:
        raise TleParseError(line_no, start + 1, f"non-numeric {what}: {text!r}") from None
    if not math.isfinite(value):
        raise TleParseError(line_no, start + 1, f"non-finite {what}: {text!r}")
    canonical = format(value, spec)
    if text != canonical:
        raise TleParseError(line_no, start + 1,
                            f"non-canonical {what}: {text!r} (canonical form is {canonical!r})")
    return value


def _check_implied_exponent(line_no, start, field, what):
    ok = (
        len(field) == 8
        and field[0] in " +-"
        and field[1:6].isdigit()
        and field[6] in "+-"
        and field[7].isdigit()
    )
    if not ok:
        raise TleParseError(line_no, start + 1, f"malformed {what} field: {field!r}")


def parse_tle(text):
    """Parse a 2-line (or 3-line, name first) element set into a TleRecord."""
    lines = [ln.rstrip("\r") for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) == 2:
        name = None
        l1, l2 = lines
    elif len(lines) == 3:
        name = lines[0].strip()
        l1, l2 = lines[1], lines[2]
    else:
        raise TleParseError(0, None, f"expected 2 or 3 non-empty lines, got {len(lines)}")

    for line_no, line, lead in ((1, l1, "1"), (2, l2, "2")):
        if len(line) != 69:
            raise TleParseError(line_no, None, f"line must be 69 characters, got {len(line)}")
        if line[0] != lead:
            raise TleParseError(line_no, 1, f"line must start with {lead!r}, got {line[0]!r}")
        expected = line_checksum(line)
        if line[68] != str(expected):
            raise TleParseError(
                line_no, 69, f"checksum mismatch: expected {expected}, found {line[68]!r}"
            )

    if l1[2:7] != l2[2:7]:
        raise TleParseError(2, 3, f"satellite number differs between lines: {l1[2:7]!r} vs {l2[2:7]!r}")

    # line 1
    satnum = l1[2:7]
    classification = l1[7]
    designator = l1[9:17]
    yy = _field(1, l1, 18, 20, int, "02d", "epoch year")
    if yy < 0:  # "-4" is how 02d writes -4, but format_tle writes a year's last two digits
        raise TleParseError(1, 19, f"epoch year must be two digits, got {l1[18:20]!r}")
    epoch_year = 2000 + yy if yy < 57 else 1900 + yy
    epoch_day = _field(1, l1, 20, 32, float, "012.8f", "epoch day")
    ndot_raw = l1[33:43]
    if not (ndot_raw[0] in " +-" and ndot_raw[1] == "." and ndot_raw[2:10].isdigit()):
        raise TleParseError(1, 34, f"malformed mean-motion-derivative field: {ndot_raw!r}")
    nddot_raw = l1[44:52]
    _check_implied_exponent(1, 44, nddot_raw, "second-derivative")
    bstar_raw = l1[53:61]
    _check_implied_exponent(1, 53, bstar_raw, "drag")
    ephemeris_type = l1[62]
    elset = _field(1, l1, 64, 68, int, "4d", "element set number")

    # line 2
    inclination = _field(2, l2, 8, 16, float, "8.4f", "inclination")
    raan = _field(2, l2, 17, 25, float, "8.4f", "RAAN")
    ecc_digits = l2[26:33]
    if not ecc_digits.isdigit():
        raise TleParseError(2, 27, f"non-numeric eccentricity: {ecc_digits!r}")
    eccentricity = int(ecc_digits) / 1e7
    argp = _field(2, l2, 34, 42, float, "8.4f", "argument of perigee")
    mean_anomaly = _field(2, l2, 43, 51, float, "8.4f", "mean anomaly")
    mean_motion = _field(2, l2, 52, 63, float, "11.8f", "mean motion")
    rev_number = _field(2, l2, 63, 68, int, "5d", "revolution number")

    if not 0.0 <= eccentricity < 1.0:
        raise TleParseError(2, 27, f"eccentricity out of range: {eccentricity!r}")
    if not 0.0 < mean_motion < 20.0:
        raise TleParseError(2, 53, f"mean motion out of range: {mean_motion!r}")

    return TleRecord(
        name=name,
        satellite_number=satnum,
        classification=classification,
        intl_designator=designator,
        epoch_year=epoch_year,
        epoch_day=epoch_day,
        ndot_raw=ndot_raw,
        nddot_raw=nddot_raw,
        bstar_raw=bstar_raw,
        ephemeris_type=ephemeris_type,
        element_set_number=elset,
        inclination_deg=inclination,
        raan_deg=raan,
        eccentricity=eccentricity,
        arg_perigee_deg=argp,
        mean_anomaly_deg=mean_anomaly,
        mean_motion_rev_per_day=mean_motion,
        rev_number=rev_number,
    )


def load_tle_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_tle(fh.read())


def format_tle(rec):
    """Render the record back to TLE text (with the name line when present)."""
    yy = rec.epoch_year % 100
    body1 = (
        f"1 {rec.satellite_number}{rec.classification} {rec.intl_designator} "
        f"{yy:02d}{rec.epoch_day:012.8f} {rec.ndot_raw} {rec.nddot_raw} "
        f"{rec.bstar_raw} {rec.ephemeris_type} {rec.element_set_number:4d}"
    )
    ecc_digits = f"{int(round(rec.eccentricity * 1e7)):07d}"
    body2 = (
        f"2 {rec.satellite_number} {rec.inclination_deg:8.4f} {rec.raan_deg:8.4f} "
        f"{ecc_digits} {rec.arg_perigee_deg:8.4f} {rec.mean_anomaly_deg:8.4f} "
        f"{rec.mean_motion_rev_per_day:11.8f}{rec.rev_number:5d}"
    )
    lines = []
    if rec.name is not None:
        lines.append(rec.name)
    for body in (body1, body2):
        if len(body) != 68:
            raise ValueError(f"internal formatting error, body length {len(body)}")
        lines.append(body + str(line_checksum(body)))
    return "\n".join(lines) + "\n"


def make_tle(
    name,
    satellite_number,
    epoch_year,
    epoch_day,
    inclination_deg,
    raan_deg,
    eccentricity,
    arg_perigee_deg,
    mean_anomaly_deg,
    mean_motion_rev_per_day,
    intl_designator="00000A  ",
    classification="U",
    rev_number=1,
    element_set_number=999,
):
    """Convenience constructor for synthetic records (drag terms zeroed)."""
    return TleRecord(
        name=name,
        satellite_number=f"{int(satellite_number):5d}",
        classification=classification,
        intl_designator=intl_designator,
        epoch_year=epoch_year,
        epoch_day=epoch_day,
        ndot_raw=" .00000000",
        nddot_raw=" 00000+0",
        bstar_raw=" 00000+0",
        ephemeris_type="0",
        element_set_number=element_set_number,
        inclination_deg=inclination_deg,
        raan_deg=raan_deg,
        eccentricity=eccentricity,
        arg_perigee_deg=arg_perigee_deg,
        mean_anomaly_deg=mean_anomaly_deg,
        mean_motion_rev_per_day=mean_motion_rev_per_day,
        rev_number=rev_number,
    )
