from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polsim import antenna as A
from polsim import compensation as C
from polsim import linksim as L
from polsim import orbit as O
from polsim import table, thinfilm, tle

FLOATS = st.floats(allow_nan=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
LABELS = st.text(alphabet="HV+-xyz_", max_size=3)
# whole microseconds up to 2033, where a float holds every microsecond
MICROSECONDS = st.integers(0, 2 * 10**15)


def bits(values):
    return [float(v).hex() for v in values]


class TestRoundTrip:
    """Writing a table and reading it back gives the same floats bit for bit."""

    @given(st.lists(st.tuples(FLOATS, FLOATS, LABELS, FLOATS, FLOATS), min_size=1, max_size=20))
    def test_per_scan(self, rows):
        back = table.read_table(A.PerScanResult(tuple(rows)).to_csv(), A.PER_SCAN_FORMAT)
        assert [r[2] for r in back] == [r[2] for r in rows]
        for col in (0, 1, 3, 4):
            assert bits(r[col] for r in back) == bits(r[col] for r in rows)

    @given(st.lists(st.tuples(MICROSECONDS, FLOATS, FLOATS), max_size=20))
    def test_schedule(self, rows):
        t = np.array([k / 1e6 for k, _, _ in rows])
        angle = np.array([a for _, a, _ in rows])
        rate = np.array([r for _, _, r in rows])
        schedule = C.CompensationSchedule(t, angle, rate, 0.0, 0.0, ())
        back = table.read_table(schedule.to_csv(), C.SCHEDULE_FORMAT)
        for got, want in zip(np.array(back).reshape(-1, 3).T, (t, angle, rate)):
            assert bits(got) == bits(want)

    @settings(deadline=None)
    @given(st.lists(MICROSECONDS, min_size=2, max_size=20, unique=True), st.data())
    def test_pass(self, micros, data):
        n = len(micros)
        columns = [np.array(sorted(micros)) / 1e6] + [
            np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n))) for _ in range(3)
        ]
        profile = O.PassProfile(*columns)
        back = O.parse_pass_csv(profile.to_csv())
        for name in ("t_posix", "azimuth_deg", "elevation_deg", "beta_deg"):
            assert bits(getattr(back, name)) == bits(getattr(profile, name))

    @given(st.lists(st.tuples(*[st.integers(0, 2**53)] * 4), min_size=4, max_size=4))
    def test_counts(self, counts):
        back = table.read_table(L.counts_to_csv(counts), L.COUNTS_FORMAT)
        settings_back, counts_back = [row[:2] for row in back], [row[2:] for row in back]
        assert [bits(s) for s in settings_back] == [bits(s) for s in L.BELL_TEST_SETTINGS]
        assert counts_back == [tuple(float(c) for c in quad) for quad in counts]
        assert [tuple(int(c) for c in quad) for quad in counts_back] == counts

    @given(st.lists(FLOATS, min_size=1, max_size=6), st.lists(FLOATS, min_size=1, max_size=6),
           st.data())
    def test_offset_scan(self, ground, sat, data):
        grid = np.array(data.draw(st.lists(FLOATS, min_size=len(ground) * len(sat),
                                           max_size=len(ground) * len(sat))))
        grid = grid.reshape(len(ground), len(sat))
        rows = table.read_table(L.offset_scan_csv(ground, sat, grid), L.OFFSET_SCAN_FORMAT)
        want = [(g, s, grid[i, j]) for i, g in enumerate(ground) for j, s in enumerate(sat)]
        assert [bits(r) for r in rows] == [bits(r) for r in want]


T0 = "2024-01-01T00:00:00.000000Z"

def reader(fmt):
    return lambda text: table.read_table(text, fmt)


# parser, header + one good row, malformed third lines (wrong column count or bad cell)
FORMATS = [
    (reader(A.PER_SCAN_FORMAT), "elevation_deg,azimuth_deg,state_label,per,fidelity\n"
     "30.0,0.0,H,1000.0,0.999\n", ["30.0,0.0,H,1000.0", "30.0,0.0,H,many,0.999"]),
    (reader(C.SCHEDULE_FORMAT), f"t_iso8601,hwp_deg,rate_deg_per_s\n{T0},10.0,0.5\n",
     [f"{T0},10.0", "yesterday,10.0,0.5", f"{T0},ten,0.5"]),
    (O.parse_pass_csv, f"t_iso8601,az_deg,el_deg,beta_deg\n{T0},10.0,20.0,0.0\n",
     [f"{T0},10.0", f"{T0},10.0,20.0,0.0,1.0", "yesterday,10.0,20.0", f"{T0},10.0,high"]),
    (reader(L.COUNTS_FORMAT), "setting_phi1_rad,setting_phi2_rad,c_pp,c_mm,c_pm,c_mp\n"
     "0.0,0.39,1,2,3,4\n", ["0.0,0.39,1,2,3", "0.0,0.39,1,2,3,four"]),
    (reader(L.OFFSET_SCAN_FORMAT), "ground_offset_deg,sat_offset_deg,fidelity\n0.0,0.0,1.0\n",
     ["0.0,0.0", "0.0,zero,1.0"]),
]


@pytest.mark.parametrize("parse, good, bad_line", [
    (parse, good, bad) for parse, good, bads in FORMATS for bad in bads
])
def test_error_names_the_line(parse, good, bad_line):
    with pytest.raises(ValueError, match="^line 3: "):
        parse(f"{good}{bad_line}\n")


def _bad_checksum_tle():
    name, line1, line2 = (Path(table.__file__).parent / "data" / "sso_500km.tle").read_text(
        encoding="ascii").splitlines()
    return f"{name}\n{line1[:68]}{(int(line1[68]) + 1) % 10}\n{line2}\n"


@pytest.mark.parametrize("parse, text, line_no, column", [
    (thinfilm.parse_stack_text, "ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 abc\n", 3, None),
    (thinfilm.parse_stack_text, "substrate 1.5 0.0\n", 0, None),  # 0: the whole file
    (tle.parse_tle, _bad_checksum_tle(), 1, 69),
    (tle.parse_tle, "", 0, None),
    (O.parse_pass_csv, f"t_iso8601,az_deg,el_deg\n{T0},10.0\n", 2, None),
    (O.parse_pass_csv, f"t_iso8601,az_deg,el_deg\n\n{T0},10.0,high\n", 3, None),
    (reader(L.COUNTS_FORMAT), "0.0,0.39,1,2,3,4\n0.0,0.39,1,2,3,four\n", 2, None),
])
def test_every_reader_raises_parse_error(parse, text, line_no, column):
    with pytest.raises(table.ParseError) as err:
        parse(text)
    assert (err.value.line_no, err.value.column) == (line_no, column)
    where = f"line {line_no}" + ("" if column is None else f", column {column}")
    assert str(err.value).startswith(f"{where}: ")


@pytest.mark.parametrize("parse, text, message", [
    (thinfilm.parse_stack_text, "ambient -1 0\nsubstrate 1.5 0.0\n",
     "ambient/substrate indices need a positive real part"),
    (O.parse_pass_csv, f"2024-01-01T00:00:01Z,10.0,20.0\n{T0},11.0,21.0\n",
     "pass timestamps must be strictly increasing"),
    (O.parse_pass_csv, f"{T0},10.0,20.0\n", "a pass needs at least two samples"),
])
def test_values_the_class_refuses_are_a_whole_file_error(parse, text, message):
    with pytest.raises(table.ParseError) as err:
        parse(text)
    assert (err.value.line_no, err.value.column) == (0, None)
    assert str(err.value) == f"line 0: {message}"


def test_comments_blank_lines_and_headers_skipped():
    text = "# made by hand\n\nground_offset_deg,sat_offset_deg,fidelity\n  \n1.0,-1.0,0.5\n"
    assert table.read_table(text, L.OFFSET_SCAN_FORMAT) == [(1.0, -1.0, 0.5)]


def test_missing_trailing_columns_take_fill():
    fmt = (("a", float), ("b", float), ("c", float))
    rows = table.read_table("1.0\n1.0,2.0\n1.0,2.0,3.0\n", fmt, fill=(8.0, 9.0))
    assert rows == [(1.0, 8.0, 9.0), (1.0, 2.0, 9.0), (1.0, 2.0, 3.0)]


def test_json_refuses_nan():
    with pytest.raises(ValueError):
        table.json_text({"S": float("nan")})


@pytest.mark.parametrize("degrees", [360, -360.0, (0.0, 360.0, -360.0),
                                     np.array([[-1.5, 359.9]])])
def test_angle_in_a_turn_accepted(degrees):
    assert table.check_degrees("beta", degrees) is None


@pytest.mark.parametrize("degrees, shown", [
    (361, "361"), (-360.0000001, "-360.0000001"), (np.float64(3.6e18), "3.6e+18"),
    (float("nan"), "nan"), ((0.0, 400.0, -500.0), "400.0"), (np.array([[1.0], [-1e300]]), "-1e+300"),
])
def test_angle_past_a_turn_refused(degrees, shown):
    # the first value out of range is shown, as a Python number
    with pytest.raises(ValueError) as err:
        table.check_degrees("beta", degrees)
    assert str(err.value) == f"beta must be in [-360, 360] degrees, got {shown}"


def iso_reference(t):
    """The scalar formatter the array one replaced, with the year zero-padded."""
    dt = datetime.fromtimestamp(t, tz=timezone.utc).replace(tzinfo=None)
    return dt.isoformat(timespec="microseconds") + "Z"


FIRST_S, END_S = -62135596800.0, 253402300800.0  # 0001-01-01 and 10000-01-01, POSIX s
TIMES = st.one_of(
    st.floats(FIRST_S - 1e4, END_S + 1e4),  # negative times and both year limits
    st.floats(FIRST_S - 1.0, FIRST_S + 1.0),
    st.floats(END_S - 1.0, END_S + 1.0),
    # j/128 s is j * 7812.5 us: every odd j is an exact half-microsecond tie
    st.integers(-2**40, 2**40).map(lambda j: (2 * j + 1) / 128.0),
    st.integers(0, 2**28).map(lambda k: k / 1e3 + 1.7e9 + 5e-7),  # 0.5 us off a ms grid
    st.sampled_from([np.nan, np.inf, -np.inf, 1e20, -1e20]),
)


class TestIsoFromPosix:
    """The array formatter agrees with datetime.fromtimestamp, ties and limits included."""

    @settings(max_examples=300)
    @given(st.lists(TIMES, min_size=1, max_size=8))
    @example([FIRST_S, np.nextafter(FIRST_S, -np.inf)])
    @example([0.5 / 1e6, 1.5 / 1e6, -0.5 / 1e6, 1 / 128, 3 / 128])
    def test_matches_datetime(self, times):
        try:
            want = [iso_reference(t) for t in times]
        except (ValueError, OverflowError):
            with pytest.raises(ValueError, match="not in years 1 to 9999"):
                table.iso_from_posix(times)
        else:
            assert table.iso_from_posix(np.array(times)).tolist() == want

    def test_first_microsecond_of_year_one(self):
        assert table.iso_from_posix(FIRST_S) == "0001-01-01T00:00:00.000000Z"

    def test_year_9999_rounding_up_raises(self):
        # the last microsecond of 9999 reads back as the first second of 10000
        t = table.posix_from_iso("9999-12-31T23:59:59.999999Z")
        assert table.iso_from_posix(t - 1.0) == "9999-12-31T23:59:59.000000Z"
        with pytest.raises(ValueError, match="not in years 1 to 9999"):
            table.iso_from_posix([t - 1.0, t])

    @pytest.mark.parametrize("year", [1, 999])
    def test_early_years_round_trip(self, year):
        t0 = table.posix_from_iso(f"{year:04d}-01-01T00:00:01.5Z")
        t = t0 + np.array([0.0, 0.25, 1.0])
        profile = O.PassProfile(t, np.array([10.0, 11.0, 12.0]), np.full(3, 30.0), np.zeros(3))
        text = profile.to_csv()
        assert f"\n{year:04d}-01-01T00:00:01.500000Z," in text
        assert bits(O.parse_pass_csv(text).t_posix) == bits(t)
        schedule = C.schedule_from_pass(profile)
        rows = table.read_table(schedule.to_csv(), C.SCHEDULE_FORMAT)
        assert bits(row[0] for row in rows) == bits(t)
