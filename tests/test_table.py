from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polsim import antenna as A
from polsim import compensation as C
from polsim import linksim as L
from polsim import orbit as O
from polsim import table

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
        schedule = C.CompensationSchedule(t, angle, rate, 0.0, 1, 0.0, ())
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

    @given(st.lists(st.tuples(FLOATS, FLOATS), min_size=4, max_size=4),
           st.lists(st.tuples(*[st.integers(0, 2**53)] * 4), min_size=4, max_size=4))
    def test_counts(self, setting_pairs, counts):
        back = table.read_table(L.counts_to_csv(counts, setting_pairs), L.COUNTS_FORMAT)
        settings_back, counts_back = [row[:2] for row in back], [row[2:] for row in back]
        assert [bits(s) for s in settings_back] == [bits(s) for s in setting_pairs]
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


def test_comments_blank_lines_and_headers_skipped():
    text = "# made by hand\n\nground_offset_deg,sat_offset_deg,fidelity\n  \n1.0,-1.0,0.5\n"
    assert table.read_table(text, L.OFFSET_SCAN_FORMAT) == [(1.0, -1.0, 0.5)]


def test_json_refuses_nan():
    with pytest.raises(ValueError):
        table.json_text({"S": float("nan")})


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
