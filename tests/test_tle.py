import contextlib
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polsim import tle as T
from polsim.table import ParseError

# real historical record (valid checksums by provenance)
ISS = """ISS (ZARYA)
1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992
2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298
"""
ISS_LINES = ISS.splitlines()


class TestChecksum:
    def test_known_lines(self):
        assert T.line_checksum(ISS_LINES[1]) == int(ISS_LINES[1][68])
        assert T.line_checksum(ISS_LINES[2]) == int(ISS_LINES[2][68])

    def test_minus_counts_one(self):
        assert T.line_checksum("-" * 68) == 68 % 10

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_only_ascii_digits_count(self, digit):
        # str.isdigit takes both, and int("٣") is 3, but neither is a TLE digit
        assert T.line_checksum(digit * 68) == 0
        assert T.line_checksum("7" + digit * 67) == 7


class TestParse:
    def test_fields(self):
        rec = T.parse_tle(ISS)
        assert rec.name == "ISS (ZARYA)"
        assert rec.satellite_number == "25544"
        assert rec.classification == "U"
        assert rec.epoch_year == 2020
        assert rec.epoch_day == pytest.approx(151.61686127)
        assert rec.inclination_deg == pytest.approx(51.6444)
        assert rec.raan_deg == pytest.approx(75.4313)
        assert rec.eccentricity == pytest.approx(0.0002297)
        assert rec.arg_perigee_deg == pytest.approx(11.5525)
        assert rec.mean_anomaly_deg == pytest.approx(50.1151)
        assert rec.mean_motion_rev_per_day == pytest.approx(15.49398617)
        assert rec.rev_number == 22929
        assert rec.ndot_raw == " .00000168"
        assert rec.nddot_raw == " 00000-0"
        assert rec.bstar_raw == " 11087-4"

    def test_epoch_datetime(self):
        rec = T.parse_tle(ISS)
        assert rec.epoch.year == 2020
        assert rec.epoch.month == 5
        assert rec.epoch.day == 30

    def test_two_line_form(self):
        rec = T.parse_tle("\n".join(ISS_LINES[1:]) + "\n")
        assert rec.name is None
        assert rec.satellite_number == "25544"

    def test_roundtrip_three_line(self):
        assert T.format_tle(T.parse_tle(ISS)) == ISS

    def test_roundtrip_two_line(self):
        text = "\n".join(ISS_LINES[1:]) + "\n"
        assert T.format_tle(T.parse_tle(text)) == text

    def test_wrong_length(self):
        bad = ISS_LINES[1][:68] + "\n" + ISS_LINES[2]
        with pytest.raises(ParseError) as err:
            T.parse_tle(bad)
        assert err.value.line_no == 1
        assert "69" in str(err.value)

    def test_perturbed_checksum_names_line_one(self):
        l1 = ISS_LINES[1]
        digit = "5" if l1[68] != "5" else "6"
        bad = l1[:68] + digit + "\n" + ISS_LINES[2]
        with pytest.raises(ParseError) as err:
            T.parse_tle(bad)
        assert err.value.line_no == 1
        assert "checksum" in str(err.value)

    def test_satnum_mismatch(self):
        l2 = "2 25545" + ISS_LINES[2][7:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        with pytest.raises(ParseError) as err:
            T.parse_tle(ISS_LINES[1] + "\n" + l2)
        assert "satellite number" in str(err.value)

    def test_non_numeric_field_reports_column(self):
        l2 = ISS_LINES[2][:8] + "  x1.644" + ISS_LINES[2][16:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        with pytest.raises(ParseError) as err:
            T.parse_tle(ISS_LINES[1] + "\n" + l2)
        assert err.value.line_no == 2
        assert err.value.column == 9

    @pytest.mark.parametrize("start, column, what", [(44, 45, "second-derivative"),
                                                     (53, 54, "drag")])
    def test_malformed_exponent_field_names_its_first_column(self, start, column, what):
        # columns 45-52 and 54-61 of line 1 hold the implied-exponent fields
        l1 = ISS_LINES[1][:start] + " 1234x-5" + ISS_LINES[1][start + 8:]
        l1 = l1[:68] + str(T.line_checksum(l1))
        with pytest.raises(ParseError) as err:
            T.parse_tle(l1 + "\n" + ISS_LINES[2])
        assert (err.value.line_no, err.value.column) == (1, column)
        assert str(err.value) == f"line 1, column {column}: malformed {what} field: ' 1234x-5'"

    def test_single_digit_mutations_all_detected(self):
        # mutating any digit anywhere breaks that line's checksum (a digit
        # change shifts the mod-10 sum by a nonzero amount, and touching the
        # checksum digit itself mismatches the unchanged body)
        for line_idx in (1, 2):
            lines = list(ISS_LINES)
            original = lines[line_idx]
            for pos, ch in enumerate(original):
                if not ch.isdigit():
                    continue
                for repl in "0123456789":
                    if repl == ch:
                        continue
                    lines[line_idx] = original[:pos] + repl + original[pos + 1:]
                    with pytest.raises(ParseError):
                        T.parse_tle("\n".join(lines) + "\n")
            lines[line_idx] = original

    def test_rejects_noncanonical_field_padding(self):
        # same numbers, zero-padded RAAN: value parses but layout is not the
        # canonical fixed-precision form, so strict parsing refuses it
        l2 = ISS_LINES[2][:17] + "075.4313" + ISS_LINES[2][25:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        with pytest.raises(ParseError) as err:
            T.parse_tle(ISS_LINES[1] + "\n" + l2)
        assert "non-canonical" in str(err.value)

    @pytest.mark.parametrize("year", [" 4", "+4"])
    def test_non_canonical_epoch_year(self, year):
        # int() reads both as 4, but format_tle writes "04"
        l1 = ISS_LINES[1][:18] + year + ISS_LINES[1][20:]
        l1 = l1[:68] + str(T.line_checksum(l1))
        with pytest.raises(ParseError) as err:
            T.parse_tle(l1 + "\n" + ISS_LINES[2])
        assert str(err.value) == (f"line 1, column 19: non-canonical epoch year: {year!r} "
                                  "(canonical form is '04')")

    @pytest.mark.parametrize("year", ["-4", "-9"])
    def test_signed_epoch_year(self, year):
        # canonical for 02d, but would parse as 1996 and re-format as "96"
        l1 = ISS_LINES[1][:18] + year + ISS_LINES[1][20:]
        l1 = l1[:68] + str(T.line_checksum(l1))
        with pytest.raises(ParseError) as err:
            T.parse_tle(l1 + "\n" + ISS_LINES[2])
        assert err.value.column == 19
        assert str(err.value) == f"line 1, column 19: epoch year must be two digits, got {year!r}"

    @pytest.mark.parametrize("year, full", [("00", 2000), ("56", 2056), ("57", 1957),
                                            ("99", 1999)])
    def test_two_digit_epoch_year_window(self, year, full):
        l1 = ISS_LINES[1][:18] + year + ISS_LINES[1][20:]
        l1 = l1[:68] + str(T.line_checksum(l1))
        assert T.parse_tle(l1 + "\n" + ISS_LINES[2]).epoch_year == full

    @pytest.mark.parametrize("token", ["     nan", "     inf", "    -inf"])
    def test_non_finite_field(self, token):
        # format(nan, "8.4f") is "     nan", so the canonical check alone accepts it
        l2 = ISS_LINES[2][:8] + token + ISS_LINES[2][16:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        with pytest.raises(ParseError) as err:
            T.parse_tle(ISS_LINES[1] + "\n" + l2)
        assert str(err.value) == f"line 2, column 9: non-finite inclination: {token!r}"

    @pytest.mark.parametrize("token, value", [(" 0.00000000", 0.0), ("20.00000000", 20.0),
                                              ("-1.00000000", -1.0)])
    def test_mean_motion_outside_open_range(self, token, value):
        # the parser accepts a mean motion only in (0, 20) rev/day, both ends excluded
        l2 = ISS_LINES[2][:52] + token + ISS_LINES[2][63:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        with pytest.raises(ParseError) as err:
            T.parse_tle(ISS_LINES[1] + "\n" + l2)
        assert str(err.value) == f"line 2, column 53: mean motion out of range: {value!r}"

    @pytest.mark.parametrize("token, value", [(" 0.00000001", 1e-8), ("19.99999999", 19.99999999)])
    def test_mean_motion_just_inside_range(self, token, value):
        l2 = ISS_LINES[2][:52] + token + ISS_LINES[2][63:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        assert T.parse_tle(ISS_LINES[1] + "\n" + l2).mean_motion_rev_per_day == value

    def test_first_fault_in_column_order_is_reported(self):
        # a signed epoch year (column 19) and a bad epoch day (column 21): the year is first
        l1 = ISS_LINES[1][:18] + "-4" + "x" + ISS_LINES[1][21:]
        l1 = l1[:68] + str(T.line_checksum(l1))
        with pytest.raises(ParseError) as err:
            T.parse_tle(l1 + "\n" + ISS_LINES[2])
        assert str(err.value) == "line 1, column 19: epoch year must be two digits, got '-4'"

    @pytest.mark.parametrize("line_no, column", [
        (1, 2), (1, 9), (1, 18), (1, 33), (1, 44), (1, 53), (1, 62), (1, 64),
        (2, 2), (2, 8), (2, 17), (2, 26), (2, 34), (2, 43), (2, 52),
    ])
    @pytest.mark.parametrize("token", ["X", "0", "-"])
    def test_separator_must_be_a_space(self, line_no, column, token):
        lines = list(ISS_LINES)
        line = lines[line_no][:column - 1] + token + lines[line_no][column:]
        lines[line_no] = line[:68] + str(T.line_checksum(line))
        with pytest.raises(ParseError) as err:
            T.parse_tle("\n".join(lines) + "\n")
        assert (err.value.line_no, err.value.column) == (line_no, column)
        assert str(err.value) == (f"line {line_no}, column {column}: "
                                  f"separator must be a space, got {token!r}")

    def test_separator_checked_in_column_order(self):
        # column 18 is a separator, 19-20 the epoch year and 33 the next separator
        for edits, column in (({17: "X", 18: "x"}, 18), ({18: "x", 32: "X"}, 19)):
            l1 = "".join(edits.get(i, ch) for i, ch in enumerate(ISS_LINES[1]))
            l1 = l1[:68] + str(T.line_checksum(l1))
            with pytest.raises(ParseError) as err:
                T.parse_tle(l1 + "\n" + ISS_LINES[2])
            assert (err.value.line_no, err.value.column) == (1, column)

    @pytest.mark.parametrize("column, digit, field_column, message", [
        # int("٣") is 3, so an eccentricity of "000229٣" used to parse as 0.0002293
        (33, "²", 27, "non-numeric eccentricity: '000229²'"),
        (33, "٣", 27, "non-numeric eccentricity: '000229٣'"),
        (16, "²", 9, "non-numeric inclination: ' 51.644²'"),
        (16, "٣", 9, "non-canonical inclination: ' 51.644٣' (canonical form is ' 51.6443')"),
    ])
    def test_non_ascii_digit_names_its_field(self, column, digit, field_column, message):
        l2 = ISS_LINES[2][:column - 1] + digit + ISS_LINES[2][column:]
        l2 = l2[:68] + str(T.line_checksum(l2))
        with pytest.raises(ParseError) as err:
            T.parse_tle(ISS_LINES[1] + "\n" + l2)
        assert (err.value.line_no, err.value.column) == (2, field_column)
        assert str(err.value) == f"line 2, column {field_column}: {message}"

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_in_place_of_a_digit_fails_the_checksum(self, digit):
        l1 = ISS_LINES[1][:2] + digit + ISS_LINES[1][3:]  # the satellite number's leading 2
        with pytest.raises(ParseError) as err:
            T.parse_tle(l1 + "\n" + ISS_LINES[2])
        assert (err.value.line_no, err.value.column) == (1, 69)
        assert "checksum mismatch: expected 0, found '2'" in str(err.value)

    def test_eccentricity_range_guard(self):
        rec = T.parse_tle(ISS)
        assert 0.0 <= rec.eccentricity < 1.0
        assert 0.0 < rec.mean_motion_rev_per_day < 20.0


class TestMakeTle:
    def test_synthetic_roundtrip(self):
        rec = T.make_tle("TEST SAT", 99999, 2024, 123.456789, 97.4, 104.0,
                         0.001, 45.0, 270.0, 15.22)
        text = T.format_tle(rec)
        back = T.parse_tle(text)
        assert T.format_tle(back) == text
        assert back.inclination_deg == pytest.approx(97.4)
        assert back.eccentricity == pytest.approx(0.001)


@pytest.mark.parametrize("field, value, message", [
    ("satellite_number", 123456, "satellite number '123456' does not fit line 1, columns 3-7"),
    ("rev_number", 100000, "revolution number '100000' does not fit line 2, columns 64-68"),
    ("inclination_deg", 1000.0, "inclination '1000.0000' does not fit line 2, columns 9-16"),
    ("element_set_number", 10000, "element set number '10000' does not fit line 1, columns 65-68"),
])
def test_format_refuses_a_field_wider_than_its_columns(field, value, message):
    elements = dict(name=None, satellite_number=99999, epoch_year=2024, epoch_day=1.0,
                    inclination_deg=97.4, raan_deg=104.0, eccentricity=0.001,
                    arg_perigee_deg=0.0, mean_anomaly_deg=0.0, mean_motion_rev_per_day=15.22)
    rec = replace(T.make_tle(**elements), **{field: value})
    with pytest.raises(ValueError) as err:
        T.format_tle(rec)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["", " ", "SAT ", " SAT", "\tSAT", "A\nB", "A\rB", "A\r\nB",
                                  "A\x0bB", "A\x1cB", "A\x85B", "A\u2028B", "SAT\n"])
def test_format_refuses_a_name_parse_would_change(name):
    rec = T.make_tle(name, 99999, 2024, 1.0, 97.4, 104.0, 0.001, 0.0, 0.0, 15.22)
    with pytest.raises(ValueError) as err:
        T.format_tle(rec)
    assert str(err.value).startswith(f"name {name!r} does not round-trip")


@pytest.mark.parametrize("name", ["S", "ISS (ZARYA)", "A  B", "0 1", "SAT-Ü", "1 25544U"])
def test_name_round_trips(name):
    rec = T.make_tle(name, 99999, 2024, 1.0, 97.4, 104.0, 0.001, 0.0, 0.0, 15.22)
    assert T.parse_tle(T.format_tle(rec)) == rec


def test_format_refuses_a_narrow_field():
    # a 6-character designator in 8 columns would shift every later column of line 1 left
    rec = replace(T.make_tle(None, 99999, 2024, 1.0, 97.4, 104.0, 0.001, 0.0, 0.0, 15.22),
                  intl_designator="24001A")
    with pytest.raises(ValueError, match="international designator '24001A' does not fit"):
        T.format_tle(rec)


def fixed_point(digits, low, high):
    """Floats k / 10**digits in [low, high], as a TLE column holds them."""
    scale = 10**digits
    return st.integers(round(low * scale), round(high * scale)).map(lambda k: k / scale)


NAMES = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -()/", min_size=1, max_size=24)
# names parse_tle may not give back: empty, padded, or holding a line break
ODD_NAMES = st.text(alphabet="AB \t\n\r\x0b\x0c\x1c\x85\u2028\u3000", max_size=6)

RECORDS = st.builds(
    replace,
    st.builds(
        T.make_tle,
        name=st.none() | NAMES.map(str.strip).filter(bool) | NAMES | ODD_NAMES,
        satellite_number=st.integers(0, 99999),
        epoch_year=st.integers(1957, 2056),
        epoch_day=fixed_point(8, 1.0, 366.99999999),
        inclination_deg=fixed_point(4, 0.0, 180.0),
        raan_deg=fixed_point(4, 0.0, 359.9999),
        eccentricity=fixed_point(7, 0.0, 0.9999999),
        arg_perigee_deg=fixed_point(4, 0.0, 359.9999),
        mean_anomaly_deg=fixed_point(4, 0.0, 359.9999),
        mean_motion_rev_per_day=fixed_point(8, 1e-8, 19.99999999),
    ),
    classification=st.sampled_from("UCS"),
    rev_number=st.integers(0, 99999),
    element_set_number=st.integers(0, 9999),
)


@given(RECORDS)
def test_format_parse_format_is_identity(rec):
    try:
        text = T.format_tle(rec)
    except ValueError as err:
        # refused only for a name that the name line parses to something else
        assert str(err).startswith(f"name {rec.name!r} does not round-trip")
        body = T.format_tle(replace(rec, name=None))
        with contextlib.suppress(ParseError):
            assert T.parse_tle(rec.name + "\n" + body).name != rec.name
        return
    back = T.parse_tle(text)
    assert T.format_tle(back) == text
    assert back == rec
