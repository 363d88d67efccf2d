import numpy as np
import pytest
from hypothesis import given, settings
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
        back = A.parse_per_scan_csv(A.PerScanResult(tuple(rows)).to_csv()).rows
        assert [r[2] for r in back] == [r[2] for r in rows]
        for col in (0, 1, 3, 4):
            assert bits(r[col] for r in back) == bits(r[col] for r in rows)

    @given(st.lists(st.tuples(MICROSECONDS, FLOATS, FLOATS), max_size=20))
    def test_schedule(self, rows):
        t = np.array([k / 1e6 for k, _, _ in rows])
        angle = np.array([a for _, a, _ in rows])
        rate = np.array([r for _, _, r in rows])
        schedule = C.CompensationSchedule(t, angle, rate, 0.0, 1, 0.0, ())
        back = C.parse_schedule_csv(schedule.to_csv())
        for got, want in zip(back, (t, angle, rate)):
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
        settings_back, counts_back = L.parse_counts_csv(L.counts_to_csv(counts, setting_pairs))
        assert [bits(s) for s in settings_back] == [bits(s) for s in setting_pairs]
        assert counts_back == [tuple(float(c) for c in quad) for quad in counts]
        assert [tuple(int(c) for c in quad) for quad in counts_back] == counts

    @given(st.lists(FLOATS, min_size=1, max_size=6), st.lists(FLOATS, min_size=1, max_size=6),
           st.data())
    def test_offset_scan(self, ground, sat, data):
        grid = np.array(data.draw(st.lists(FLOATS, min_size=len(ground) * len(sat),
                                           max_size=len(ground) * len(sat))))
        grid = grid.reshape(len(ground), len(sat))
        rows = L.parse_offset_scan_csv(L.offset_scan_csv(ground, sat, grid))
        want = [(g, s, grid[i, j]) for i, g in enumerate(ground) for j, s in enumerate(sat)]
        assert [bits(r) for r in rows] == [bits(r) for r in want]


T0 = "2024-01-01T00:00:00.000000Z"

# parser, header + one good row, malformed third lines (wrong column count or bad cell)
FORMATS = [
    (A.parse_per_scan_csv, "elevation_deg,azimuth_deg,state_label,per,fidelity\n"
     "30.0,0.0,H,1000.0,0.999\n", ["30.0,0.0,H,1000.0", "30.0,0.0,H,many,0.999"]),
    (C.parse_schedule_csv, f"t_iso8601,hwp_deg,rate_deg_per_s\n{T0},10.0,0.5\n",
     [f"{T0},10.0", "yesterday,10.0,0.5", f"{T0},ten,0.5"]),
    (O.parse_pass_csv, f"t_iso8601,az_deg,el_deg,beta_deg\n{T0},10.0,20.0,0.0\n",
     [f"{T0},10.0", f"{T0},10.0,20.0,0.0,1.0", "yesterday,10.0,20.0", f"{T0},10.0,high"]),
    (L.parse_counts_csv, "setting_phi1_rad,setting_phi2_rad,c_pp,c_mm,c_pm,c_mp\n"
     "0.0,0.39,1,2,3,4\n", ["0.0,0.39,1,2,3", "0.0,0.39,1,2,3,four"]),
    (L.parse_offset_scan_csv, "ground_offset_deg,sat_offset_deg,fidelity\n0.0,0.0,1.0\n",
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
    assert L.parse_offset_scan_csv(text) == [(1.0, -1.0, 0.5)]


def test_json_refuses_nan():
    with pytest.raises(ValueError):
        table.json_text({"S": float("nan")})
