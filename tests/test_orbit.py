import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polsim import orbit as O
from polsim import tle as T
from reference import az_el_range, dense_passes, is_north_to_south, state

DATA = Path(__file__).resolve().parents[1] / "src" / "polsim" / "data"


@pytest.fixture(scope="module")
def sso():
    return T.load_tle_file(DATA / "sso_500km.tle")


@pytest.fixture(scope="module")
def sso_passes(sso):
    t0 = sso.epoch_posix
    return O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 2 * 86400.0, threshold_deg=10.0)


def bisect_kepler(m, e):
    lo, hi = m - e - 1e-9, m + e + 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - m < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestKepler:
    def test_against_bisection_oracle(self):
        # frozen from the bisection oracle at (M=2.0, e=0.7)
        expected = bisect_kepler(2.0, 0.7)
        assert expected == pytest.approx(2.447683214615955, abs=1e-9)
        assert O.solve_kepler(2.0, 0.7) == pytest.approx(expected, abs=1e-12)

    def test_residual_sweep(self, rng):
        for _ in range(1000):
            m = rng.uniform(0.0, 2.0 * math.pi)
            e = rng.uniform(0.0, 0.9)
            ecc = O.solve_kepler(m, e)
            assert abs(ecc - e * math.sin(ecc) - m) < 1e-12

    def test_circular(self):
        assert O.solve_kepler(1.234, 0.0) == pytest.approx(1.234, abs=1e-15)

    def test_array_residual(self, rng):
        m = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 2000)
        for e in np.append(rng.uniform(0.0, 0.99, 20), [0.0, 0.8, 0.989]):
            ecc = O.solve_kepler(m, e)
            assert ecc.shape == m.shape
            assert np.max(np.abs(ecc - e * np.sin(ecc) - m)) < 1e-12

    def test_scalar_returns_float(self):
        assert type(O.solve_kepler(2.0, 0.7)) is float
        assert type(O.solve_kepler(np.float64(2.0), 0.95)) is float

    def test_non_finite_anomaly_rejected(self):
        with pytest.raises(ValueError):
            O.solve_kepler(np.array([1.0, math.nan]), 0.1)


class TestPropagation:
    def test_circular_radius(self):
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 0.0, 0.0, 0.0, 0.0, 15.22)
        pos = state(rec, rec.epoch_posix)[0]
        n_rad = 15.22 * 2.0 * math.pi / 86400.0
        assert np.linalg.norm(pos) == pytest.approx(
            (O.MU_EARTH_KM3_S2 / n_rad**2) ** (1.0 / 3.0), rel=1e-12
        )

    def test_periodicity(self):
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        period = 86400.0 / 15.22
        p0 = state(rec, rec.epoch_posix)[0]
        p1 = state(rec, rec.epoch_posix + period)[0]
        assert np.linalg.norm(p1 - p0) < 1e-6

    def test_energy_conservation_week(self):
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        ts = rec.epoch_posix + np.linspace(0.0, 7.0 * 86400.0, 3000)
        pos, vel = state(rec, ts)
        energy = 0.5 * np.sum(vel**2, axis=1) - O.MU_EARTH_KM3_S2 / np.linalg.norm(pos, axis=1)
        assert (energy.max() - energy.min()) / abs(energy.mean()) < 1e-9

    def test_horizon_guard(self):
        # the two-body horizon holds before the epoch as well as after it
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        t0 = rec.epoch_posix
        with pytest.raises(ValueError) as err:
            O.extract_passes(rec, O.NGARI_STATION, t0 - 8.0 * 86400.0, t0 - 86400.0)
        assert str(err.value) == ("propagation 8 days from epoch exceeds the 7-day two-body "
                                  "accuracy horizon")


class TestTopocentric:
    T0 = 1704067200.0  # 2024-01-01T00:00:00Z

    def test_zenith(self):
        station = O.GroundStation(0.0, 0.0, 0.0)
        overhead_ecef = O._site(station)[0] * (1.0 + 600.0 / O.R_EARTH_KM)
        sat_eci = O._rotate_z(overhead_ecef, O.gmst_rad(self.T0))
        az, el, rng_km = az_el_range(sat_eci, station, self.T0)
        assert el == pytest.approx(90.0, abs=1e-6)
        assert az == 0.0  # undefined at zenith, returned as 0

    def test_station_altitude_raises_the_site(self):
        # Ngari's 5047 m put the site 5.047 km above the 6371 km sphere
        site = O._site(O.NGARI_STATION)[0]
        assert np.linalg.norm(site) == pytest.approx(6376.047, rel=1e-12)

    def test_horizon_plane(self):
        station = O.GroundStation(0.0, 0.0, 0.0)
        up = O._site(station)[0]
        east = np.array([0.0, 1.0, 0.0])
        sat_ecef = up + east * 500.0  # tangent direction
        sat_eci = O._rotate_z(sat_ecef, O.gmst_rad(self.T0))
        _, el, _ = az_el_range(sat_eci, station, self.T0)
        assert el == pytest.approx(0.0, abs=1e-9)

    def test_hand_geometry(self):
        # station at (0, 0); satellite over (0 N, 90 E) at station radius + 600 km
        station = O.GroundStation(0.0, 0.0, 0.0)
        sat_ecef = np.array([0.0, O.R_EARTH_KM + 600.0, 0.0])
        sat_eci = O._rotate_z(sat_ecef, O.gmst_rad(self.T0))
        az, el, _ = az_el_range(sat_eci, station, self.T0)
        assert az == pytest.approx(90.0, abs=1e-9)
        assert el < 0.0

    def test_gmst_resolves_microseconds(self):
        # days from J2000 are formed directly, not through a Julian date near 2.46e6
        ts = self.T0 + 1.5e7 + np.arange(0.0, 2e-4, 1e-6)  # 2024-06-22
        assert np.all(np.diff(O.gmst_rad(ts)) > 0.0)

    def test_gmst_at_j2000(self):
        assert O.gmst_rad(946728000.0) == pytest.approx(math.radians(280.46061837), abs=1e-15)

    @pytest.mark.parametrize("t_posix, gmst_deg", [
        (545011200.0, 197.693195),  # Meeus, Astronomical Algorithms, Example 12.a: 1987-04-10 0h UT
        (545080860.0, 128.7378734),  # Example 12.b: 1987-04-10 19:21:00 UT
    ])
    def test_gmst_meeus_examples(self, t_posix, gmst_deg):
        assert math.degrees(float(O.gmst_rad(t_posix))) == pytest.approx(gmst_deg, abs=1e-6)

    @given(st.lists(st.tuples(*[st.floats(-5e4, 5e4)] * 3), min_size=1, max_size=20),
           st.floats(-100.0, 100.0))
    def test_z_rotation_round_trip(self, vectors, angle):
        v = np.array(vectors)
        assert np.max(np.abs(O._rotate_z(O._rotate_z(v, angle), -angle) - v)) < 1e-9
        # turning by -angle is the inverse matrix [[c, s], [-s, c]] bit for bit
        c, s = np.cos(angle), np.sin(angle)
        x, y, z = v.T
        assert np.array_equal(O._rotate_z(v, -angle),
                              np.stack([c * x + s * y, -s * x + c * y, z], axis=-1))


class TestPasses:
    def test_geostationary_like_never_rises(self):
        # equatorial, one rev/day, parked far in longitude from the station
        rec = T.make_tle(None, 90001, 2024, 1.0, 0.0, 280.0, 0.0001, 0.0, 0.0, 1.0027)
        t0 = rec.epoch_posix
        passes = O.extract_passes(rec, O.NGARI_STATION, t0, t0 + 86400.0,
                                  threshold_deg=10.0, step_s=30.0)
        assert passes == []

    def test_sso_pass_durations(self, sso_passes):
        ns = sorted(filter(is_north_to_south, sso_passes), key=lambda p: -p.duration_s)[:2]
        assert len(ns) == 2
        for p in ns:
            assert 300.0 <= p.duration_s <= 900.0

    def test_near_zenith_threshold_passes_short(self, sso):
        t0 = sso.epoch_posix
        passes = O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 86400.0, threshold_deg=89.0)
        assert all(p.duration_s < 30.0 for p in passes)

    def test_profile_invariants(self, sso, sso_passes):
        threshold = 10.0
        for p in sso_passes:
            assert np.all(np.diff(p.t_posix) > 0.0)
            # interior samples clear the threshold; endpoints sit on it to
            # within the crossing-refinement tolerance
            assert np.all(p.elevation_deg >= threshold - 1e-4)
            assert p.elevation_deg[0] == pytest.approx(threshold, abs=1e-4)
            assert p.elevation_deg[-1] == pytest.approx(threshold, abs=1e-4)
            # maximality: one step outside the pass the elevation is below
            for t_out in (p.t_posix[0] - 1.0, p.t_posix[-1] + 1.0):
                _, el, _ = az_el_range(state(sso, t_out)[0], O.NGARI_STATION, t_out)
                assert el < threshold

    def test_pass_clipped_by_window_edge_dropped(self, sso, sso_passes):
        # the window ends (starts) 0.75 s before the set (after the rise), so
        # the grid's last (first) sample is still up and the pass is dropped
        t_rise, t_set = sso_passes[0].t_posix[[0, -1]]
        for window in ((t_rise - 600.0, t_set - 0.75), (t_rise + 0.75, t_set + 600.0)):
            assert O.extract_passes(sso, O.NGARI_STATION, *window) == []

    def test_window_validation(self, sso):
        with pytest.raises(ValueError):
            O.extract_passes(sso, O.NGARI_STATION, sso.epoch_posix, sso.epoch_posix)

    @pytest.mark.parametrize("step_s", [0.0, -5.0, math.nan, math.inf])
    def test_step_validation(self, sso, step_s):
        t0 = sso.epoch_posix
        with pytest.raises(ValueError, match="step_s"):
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 3600.0, step_s=step_s)

    WINDOW_ERRORS = {  # (parameter, bad value): message
        ("threshold_deg", 95.0): "threshold must be in [0, 90), got 95.0",
        ("threshold_deg", -1.0): "threshold must be in [0, 90), got -1.0",
        ("step_s", 0.0): "step_s must be finite and positive, got 0.0",
        ("step_s", 1e-6): "a 172800 s window at step_s 1e-06 needs more than 5000000 samples",
        ("t_end", 200.0): ("propagation 8.33333 days from epoch exceeds the 7-day two-body "
                           "accuracy horizon"),
        ("t_end", 0.0): "empty time window",
    }

    @pytest.mark.parametrize("kwargs, name", [
        ({"threshold_deg": 95.0}, "threshold_deg"),
        ({"threshold_deg": -1.0}, "threshold_deg"),
        ({"step_s": 0.0}, "step_s"),
        ({"step_s": 1e-6}, "step_s"),
        ({"t_end_h": 200.0}, "t_end"),
        ({"t_end_h": 0.0}, "t_end"),
    ])
    def test_argument_error_names_parameter(self, sso, kwargs, name):
        # the exact message for the one bad argument `name`, from extract_passes
        # and from check_window, the check the CLI runs to name a config key
        (value,) = kwargs.values()
        t0 = sso.epoch_posix
        t1 = t0 + 3600.0 * kwargs.pop("t_end_h", 48.0)
        args = {"threshold_deg": 10.0, "step_s": 1.0, **kwargs}
        for scan in (lambda: O.extract_passes(sso, O.NGARI_STATION, t0, t1, **args),
                     lambda: O.check_window(sso, t0, t1, **args)):
            with pytest.raises(ValueError) as err:
                scan()
            assert str(err.value) == self.WINDOW_ERRORS[name, value]

    def test_grid_size_bounded_before_allocation(self, sso):
        # 48 h at 1 us would be 1.7e11 samples (1.26 TiB); the check comes first
        t0 = sso.epoch_posix
        with pytest.raises(ValueError) as err:
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 48 * 3600.0, step_s=1e-6)
        assert str(err.value) == "a 172800 s window at step_s 1e-06 needs more than 5000000 samples"

    def test_horizon_is_a_window_error(self, sso):
        t0 = sso.epoch_posix
        with pytest.raises(ValueError) as err:
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 200 * 3600.0)
        assert str(err.value) == ("propagation 8.33333 days from epoch exceeds the 7-day "
                                  "two-body accuracy horizon")

    def test_horizon_message_stays_short(self, sso):
        # 1e300 hours is 4.2e298 days: six significant digits, not 299 digits
        t0 = sso.epoch_posix
        with pytest.raises(ValueError) as err:
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 1e300 * 3600.0)
        assert str(err.value) == ("propagation 4.16667e+298 days from epoch exceeds the 7-day "
                                  "two-body accuracy horizon")

    def test_horizon_applies_to_the_window_only(self, sso, sso_passes, monkeypatch):
        # The horizon sits 0.25 s before a set crossing.  At step 2 s the last
        # two grid samples fall 1.5 s before (up) and 0.5 s after (down) it, so
        # the last sample and the refined crossing both lie past t_end.
        t_set = sso_passes[0].t_posix[-1]
        t_end = t_set - 0.25
        days = (t_end + 1e-3 - sso.epoch_posix) / O.SECONDS_PER_DAY
        monkeypatch.setattr(O, "MAX_PROPAGATION_DAYS", days)
        t0 = t_set - 1.5 - 2.0 * 600
        passes = O.extract_passes(sso, O.NGARI_STATION, t0, t_end, threshold_deg=10.0, step_s=2.0)
        assert passes[-1].t_posix[-1] > t_end
        assert passes[-1].t_posix[-1] == pytest.approx(t_set, abs=1e-5)
        with pytest.raises(ValueError, match="^propagation .* two-body accuracy horizon$"):
            O.extract_passes(sso, O.NGARI_STATION, t0, t_end + 0.01, step_s=2.0)

    def test_rate_bound_nearly_attained_at_zenith(self):
        # polar orbit crossing the zenith of an equatorial station under its node
        rec = T.make_tle(None, 90002, 2024, 1.0, 90.0, 0.0, 0.0, 0.0, 0.0, 15.22)
        station = O.GroundStation(0.0, -math.degrees(float(O.gmst_rad(rec.epoch_posix))) % 360.0)
        ts = rec.epoch_posix + np.arange(-240.0, 241.0, 1.0)
        el = az_el_range(state(rec, ts)[0], station, ts)[1]
        assert el.max() > 89.9
        bound = math.degrees(O.elevation_rate_bound(rec, station))
        assert 0.9 * bound < np.max(np.abs(np.diff(el))) <= bound

    def test_array_topocentric_matches_scalar(self, sso):
        ts = sso.epoch_posix + np.arange(0.0, 6000.0, 97.0)
        az, el, rng_km = az_el_range(state(sso, ts)[0], O.NGARI_STATION, ts)
        for k in range(0, len(ts), 7):
            one = az_el_range(state(sso, ts[k])[0][0], O.NGARI_STATION, ts[k])
            assert tuple(map(float, one)) == pytest.approx((az[k], el[k], rng_km[k]), abs=1e-9)


LEO_ELEMENTS = st.fixed_dictionaries({
    "inclination_deg": st.floats(0.0, 180.0),
    "raan_deg": st.floats(0.0, 359.9999),
    "eccentricity": st.floats(0.0, 0.02),
    "arg_perigee_deg": st.floats(0.0, 359.9999),
    "mean_anomaly_deg": st.floats(0.0, 359.9999),
    "mean_motion_rev_per_day": st.floats(14.0, 16.0),
})
WINDOW_S = 43200.0


def _leo(elements):
    return T.make_tle(None, 90000, 2024, 1.0, **elements)


def _dense_elevation(rec):
    """Elevation at every sample of the window's 1 s grid, with no coarse scan."""
    ts = np.arange(rec.epoch_posix, rec.epoch_posix + WINDOW_S + 0.5, 1.0)
    return ts, az_el_range(state(rec, ts)[0], O.NGARI_STATION, ts)[1]


def _start_intervals(rec):
    """The window's 1 s grid with elevation and range, and for every sample
    the start samples a <= i <= b of extract_passes around it."""
    ts = np.arange(rec.epoch_posix, rec.epoch_posix + WINDOW_S + 0.5, 1.0)
    _, el, rng_km = az_el_range(state(rec, ts)[0], O.NGARI_STATION, ts)
    rate_deg_s = math.degrees(O.elevation_rate_bound(rec, O.NGARI_STATION))
    k = max(1, int(O.SCAN_SWING_DEG / rate_deg_s))
    a = np.arange(len(ts)) // k * k
    b = np.minimum(a + k, len(ts) - 1)
    return ts, el, rng_km, a, b, O._closing_speed(rec, O.NGARI_STATION)


def _assert_no_missed_sample(rec, threshold):
    ts, el = _dense_elevation(rec)
    passes = O.extract_passes(rec, O.NGARI_STATION, ts[0], ts[-1], threshold_deg=threshold)
    up = el >= threshold
    # drop the runs that touch a window edge: their passes are clipped
    edges = np.flatnonzero(np.diff(up.astype(np.int8))) + 1
    runs = np.split(np.arange(len(ts)), edges)
    expected = set()
    for run in runs:
        if up[run[0]] and run[0] > 0 and run[-1] < len(ts) - 1:
            expected.update(ts[run].tolist())
    found = set()
    for p in passes:
        found.update(p.t_posix[1:-1].tolist())
    assert found == expected
    return ts, el, passes


class TestPassSearchProperties:
    @settings(max_examples=25, deadline=None)
    @given(LEO_ELEMENTS, st.floats(0.0, 79.999))
    def test_no_missed_pass(self, elements, threshold):
        _assert_no_missed_sample(_leo(elements), threshold)

    @settings(max_examples=15, deadline=None)
    @given(LEO_ELEMENTS)
    def test_grazing_pass_found(self, elements):
        rec = _leo(elements)
        ts, el = _dense_elevation(rec)
        inner = np.arange(600, len(ts) - 600)  # culminations well inside the window
        peaks = inner[(el[inner] >= el[inner - 1]) & (el[inner] >= el[inner + 1])]
        peaks = peaks[(el[peaks] > 1e-3) & (el[peaks] < 89.0)]
        assume(len(peaks) > 0)
        peak = peaks[0]
        _, _, passes = _assert_no_missed_sample(rec, el[peak] - 1e-3)
        assert any(p.t_posix[0] < ts[peak] < p.t_posix[-1] for p in passes)

    @settings(max_examples=25, deadline=None)
    @given(LEO_ELEMENTS)
    def test_elevation_rate_within_bound(self, elements):
        rec = _leo(elements)
        ts, el = _dense_elevation(rec)
        bound = math.degrees(O.elevation_rate_bound(rec, O.NGARI_STATION))
        assert np.max(np.abs(np.diff(el) / np.diff(ts))) <= bound

    def test_gain_bound_closed_form(self):
        # 1000 km closing at 8 km/s onto a 500 km floor: ln(1000 / 600) rad
        # before the floor (50 s); at 100 s the range would be 200 km, so
        # ln(1000 / 500) rad to the floor and then 300 km / 500 km more
        gain = O._elevation_gain_deg(1000.0, np.array([50.0, 100.0]), 8.0, 500.0)
        want = [math.degrees(math.log(1000.0 / 600.0)), math.degrees(math.log(2.0) + 0.6)]
        assert gain == pytest.approx(want, rel=1e-12)
        assert gain[1] == pytest.approx(74.0918757, abs=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(LEO_ELEMENTS)
    def test_range_aware_bound_within_coarse_intervals(self, elements):
        # every dense 1 s sample lies under the gain bound from both of the
        # start samples extract_passes would take around it
        ts, el, rng_km, a, b, closing = _start_intervals(_leo(elements))
        assert np.all(el[a] + O._elevation_gain_deg(rng_km[a], ts - ts[a], *closing) >= el)
        assert np.all(el[b] + O._elevation_gain_deg(rng_km[b], ts[b] - ts, *closing) >= el)

    @settings(max_examples=25, deadline=None)
    @given(LEO_ELEMENTS)
    def test_range_aware_bound_from_below_within_coarse_intervals(self, elements):
        # the gain bound also bounds a loss: every dense sample lies over
        # el - G from both start samples, which certifies whole intervals up
        ts, el, rng_km, a, b, closing = _start_intervals(_leo(elements))
        assert np.all(el[a] - O._elevation_gain_deg(rng_km[a], ts - ts[a], *closing) <= el)
        assert np.all(el[b] - O._elevation_gain_deg(rng_km[b], ts[b] - ts, *closing) <= el)

    @settings(max_examples=25, deadline=None)
    @given(LEO_ELEMENTS, st.floats(0.0, 79.999))
    def test_crossings_carry_their_certificate(self, elements, threshold):
        # the elevations CROSSING_TOL_S either side of every rise and set
        # straddle the threshold, in the pass's direction
        rec = _leo(elements)
        passes = O.extract_passes(rec, O.NGARI_STATION, rec.epoch_posix,
                                  rec.epoch_posix + WINDOW_S, threshold_deg=threshold)
        for p in passes:
            for t, rising in ((p.t_posix[0], True), (p.t_posix[-1], False)):
                ts = np.array([t - O.CROSSING_TOL_S, t + O.CROSSING_TOL_S])
                before, after = az_el_range(state(rec, ts)[0], O.NGARI_STATION, ts)[1]
                assert (before >= threshold, after >= threshold) == (not rising, rising)

    @settings(max_examples=25, deadline=None)
    @given(LEO_ELEMENTS, st.floats(0.0, 79.999))
    def test_crossings_match_dense_bisection(self, elements, threshold):
        # 40 bisection rounds on the 1 s grid bracket of every rise and set
        # land within CROSSING_TOL_S, plus the float spacing of the times
        # (2.4e-7 s in 2024) that rounds t -+ tol and stalls the bisection
        rec = _leo(elements)
        ts, el = _dense_elevation(rec)
        passes = O.extract_passes(rec, O.NGARI_STATION, ts[0], ts[-1], threshold_deg=threshold)
        assume(passes)
        found = np.array([t for p in passes for t in (p.t_posix[0], p.t_posix[-1])])
        # the bracket of each crossing: the grid samples around it
        hi = np.searchsorted(ts, found)
        lo_t, hi_t = ts[hi - 1], ts[hi]
        up_lo = el[hi - 1] >= threshold
        for _ in range(40):
            mid = 0.5 * (lo_t + hi_t)
            up = az_el_range(state(rec, mid)[0], O.NGARI_STATION, mid)[1] >= threshold
            lo_t, hi_t = np.where(up == up_lo, mid, lo_t), np.where(up == up_lo, hi_t, mid)
        bisected = 0.5 * (lo_t + hi_t)
        assert np.all(np.abs(found - bisected) <= O.CROSSING_TOL_S + 2.0 * np.spacing(found))

    def test_sub_surface_perigee_scans_every_sample(self):
        # perigee 54 km under the station: no rate bound, so the scan takes
        # every sample and never forms a gain bound (no log of a negative)
        rec = T.make_tle(None, 90000, 2024, 1.0, 50.0, 120.0, 0.03, 0.0, 0.0, 16.5)
        assert O.elevation_rate_bound(rec, O.NGARI_STATION) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, passes = _assert_no_missed_sample(rec, 10.0)
        assert passes

    @pytest.mark.parametrize("step_s, start_h, hours", [
        (0.1, 16.5, 3.5), (0.121, 16.5, 3.5), (1.0, 0.0, 48.0), (3.7, 0.0, 48.0), (10.0, 0.0, 48.0),
    ])
    def test_equals_dense_scan(self, sso, step_s, start_h, hours):
        t0 = sso.epoch_posix + 3600.0 * start_h + 0.3
        t1 = t0 + 3600.0 * hours
        passes = O.extract_passes(sso, O.NGARI_STATION, t0, t1, threshold_deg=10.0, step_s=step_s)
        expected = dense_passes(sso, O.NGARI_STATION, t0, t1, 10.0, step_s)
        assert len(expected) >= 2
        assert len(passes) == len(expected)
        for p, q in zip(passes, expected):
            for field in ("t_posix", "azimuth_deg", "elevation_deg", "beta_deg"):
                assert np.array_equal(getattr(p, field), getattr(q, field))

    def test_week_scan_evaluates_few_samples(self, sso, monkeypatch):
        # refinement and crossings together evaluate 5,638 of the 604,801
        # grid samples; the last _look call forms the pass rows
        sizes = []
        look = O._look

        def counting(*args, **kwargs):
            sizes.append(np.size(args[1]))  # the sample times' GMST
            return look(*args, **kwargs)

        monkeypatch.setattr(O, "_look", counting)
        t0 = sso.epoch_posix
        passes = O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 7 * 86400.0)
        rows = sum(len(p.t_posix) for p in passes)
        assert passes and sizes[-1] == rows
        assert sum(sizes) - rows == 5638
        assert len(sizes) == 10  # start grid, 4 refinement and 4 crossing rounds, rows

    def test_crossing_tolerance_widens_to_float_spacing(self):
        # in the year 9000 POSIX seconds are 3.1e-5 s apart, more than
        # CROSSING_TOL_S; the crossing search still ends, at that spacing
        rec = T.make_tle(None, 90000, 9000, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        t0 = rec.epoch_posix
        passes = O.extract_passes(rec, O.NGARI_STATION, t0, t0 + 86400.0)
        assert passes
        for p in passes:
            assert abs(p.elevation_deg[0] - 10.0) < 1e-4 and abs(p.elevation_deg[-1] - 10.0) < 1e-4

    @pytest.mark.parametrize("f, rounds", [
        (lambda t: t - 100.3, 1),  # linear: the first falsi point is the crossing
        (lambda t: np.exp(t - 100.0) - 1.5, 6),
        (lambda t: (t - 100.0) ** 3 - 0.001, 12),  # flat at the root: Illinois steps in
        (lambda t: t - 100.0000005, 1),  # the falsi point lies within tol of either end
        (lambda t: t - 100.9999995, 1),
    ], ids=["linear", "exp", "cubic", "near-lo", "near-hi"])
    def test_crossing_rounds(self, f, rounds):
        # one call of f per round, at points inside the bracket [100, 101];
        # f changes sign within CROSSING_TOL_S of the answer
        calls = []

        def counted(t):
            calls.append(t)
            return f(t)

        lo, hi = np.array([100.0]), np.array([101.0])
        t = O._crossing(counted, lo, hi, f(lo), f(hi))
        assert len(calls) == rounds
        assert all(100.0 <= min(ts) and max(ts) <= 101.0 for ts in calls)
        assert f(t - O.CROSSING_TOL_S) < 0.0 <= f(t + O.CROSSING_TOL_S)

    def test_dip_between_up_start_samples_found(self):
        # an inclined, eccentric near-geosynchronous orbit whose elevation
        # dips under 35 deg briefly, between start samples 6 h apart that are
        # both up: only the lower bound, not the ends, may certify an interval
        rec = T.make_tle(None, 90001, 2024, 1.0, 10.0, 280.0, 0.05, 0.0, 240.0, 1.0027)
        t0, t1 = rec.epoch_posix, rec.epoch_posix + 2 * 86400.0
        passes = O.extract_passes(rec, O.NGARI_STATION, t0, t1, threshold_deg=35.0, step_s=10.0)
        expected = dense_passes(rec, O.NGARI_STATION, t0, t1, 35.0, 10.0)
        assert len(passes) == len(expected) == 1
        assert np.array_equal(passes[0].t_posix, expected[0].t_posix)

    def test_week_scan_allocates_less_than_its_grid(self, sso):
        t0 = sso.epoch_posix
        tracemalloc.start()
        try:
            passes = O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 7 * 86400.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passes
        assert peak < 604_801 * 8  # one float64 entry per sample of the 1 s grid


class TestBeta:
    def test_continuity_along_passes(self, sso_passes):
        for p in sso_passes:
            jumps = np.abs(np.diff(p.beta_deg)) / np.diff(p.t_posix)
            assert np.max(jumps) < 5.0  # deg per sample at 1 s cadence

    def test_antisymmetry_about_culmination(self):
        # engineered zenith-crossing pass: station on the equator in-plane
        rec = T.make_tle(None, 90002, 2024, 1.0, 90.0, 0.0, 0.0, 0.0, 0.0, 15.22)
        t_eq = rec.epoch_posix  # satellite starts over lat 0 at the RAAN node
        g = float(O.gmst_rad(t_eq))
        # place the station directly under that node so the pass crosses zenith
        station = O.GroundStation(0.0, -math.degrees(g) % 360.0, 0.0)
        ts = t_eq + np.arange(-240.0, 241.0, 1.0)
        beta = O._beta_from_state(*state(rec, ts), O._site(station)[0],
                                  O.gmst_rad(ts))
        el = np.array([
            az_el_range(state(rec, t)[0], station, t)[1] for t in ts[::40]
        ])
        assert el.max() > 89.0  # genuinely crosses the zenith
        # antisymmetric about the culmination sample via a mirrored-pass check
        mid = len(ts) // 2
        assert beta[mid] == pytest.approx(0.0, abs=0.2)
        fwd = beta[mid + 1 : mid + 200]
        back = beta[mid - 1 : mid - 200 : -1]
        assert np.max(np.abs(fwd + back)) < 0.2


class TestPassCsv:
    def test_roundtrip(self, sso_passes):
        p = sso_passes[0]
        back = O.parse_pass_csv(p.to_csv())
        assert np.allclose(back.t_posix, p.t_posix, atol=1e-6)
        assert np.allclose(back.azimuth_deg, p.azimuth_deg)
        assert np.allclose(back.elevation_deg, p.elevation_deg)
        assert np.allclose(back.beta_deg, p.beta_deg)

    def test_injected_beta_series_pass_through(self):
        text = (
            "t_iso8601,az_deg,el_deg,beta_deg\n"
            "2024-01-01T00:00:00.000000Z,10.0,20.0,1.5\n"
            "2024-01-01T00:00:01.000000Z,11.0,21.0,1.25\n"
        )
        p = O.parse_pass_csv(text)
        assert list(p.beta_deg) == [1.5, 1.25]

    def test_beta_column_optional(self):
        text = (
            "t_iso8601,az_deg,el_deg\n"
            "2024-01-01T00:00:00.000000Z,10.0,20.0\n"
            "2024-01-01T00:00:01.000000Z,11.0,21.0\n"
        )
        p = O.parse_pass_csv(text)
        assert list(p.beta_deg) == [0.0, 0.0]

    def test_parse_error_carries_line(self):
        text = "t_iso8601,az_deg,el_deg\n2024-01-01T00:00:00Z,10.0\n"
        with pytest.raises(ValueError) as err:
            O.parse_pass_csv(text)
        assert "line 2" in str(err.value)

    def test_non_monotonic_rejected(self):
        for second in ("00", "01"):  # a time earlier than the one before it, then equal
            text = (
                "t_iso8601,az_deg,el_deg\n"
                "2024-01-01T00:00:01.000000Z,10.0,20.0\n"
                f"2024-01-01T00:00:{second}.000000Z,11.0,21.0\n"
            )
            with pytest.raises(ValueError, match="strictly increasing"):
                O.parse_pass_csv(text)
