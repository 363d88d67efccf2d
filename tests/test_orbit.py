import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polsim import orbit as O
from polsim import tle as T
from reference import is_north_to_south

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
        pos = O.propagate(rec, rec.epoch_posix)
        n_rad = 15.22 * 2.0 * math.pi / 86400.0
        assert np.linalg.norm(pos) == pytest.approx(
            (O.MU_EARTH_KM3_S2 / n_rad**2) ** (1.0 / 3.0), rel=1e-12
        )

    def test_periodicity(self):
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        period = 86400.0 / 15.22
        p0 = O.propagate(rec, rec.epoch_posix)
        p1 = O.propagate(rec, rec.epoch_posix + period)
        assert np.linalg.norm(p1 - p0) < 1e-6

    def test_energy_conservation_week(self):
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        ts = rec.epoch_posix + np.linspace(0.0, 7.0 * 86400.0, 3000)
        pos, vel = O.propagate_state(rec, ts)
        energy = 0.5 * np.sum(vel**2, axis=1) - O.MU_EARTH_KM3_S2 / np.linalg.norm(pos, axis=1)
        assert (energy.max() - energy.min()) / abs(energy.mean()) < 1e-9

    def test_horizon_guard(self):
        rec = T.make_tle(None, 90000, 2024, 1.0, 97.4, 10.0, 0.001, 30.0, 60.0, 15.22)
        with pytest.raises(ValueError):
            O.propagate(rec, rec.epoch_posix + 8.0 * 86400.0)


class TestTopocentric:
    T0 = 1704067200.0  # 2024-01-01T00:00:00Z

    def test_zenith(self):
        station = O.GroundStation(0.0, 0.0, 0.0)
        overhead_ecef = O.station_ecef(station) * (1.0 + 600.0 / O.R_EARTH_KM)
        sat_eci = O.ecef_to_eci(overhead_ecef, self.T0)
        az, el, rng_km = O.topocentric(sat_eci, station, self.T0)
        assert el == pytest.approx(90.0, abs=1e-6)
        assert az == 0.0  # undefined at zenith, returned as 0

    def test_horizon_plane(self):
        station = O.GroundStation(0.0, 0.0, 0.0)
        up = O.station_ecef(station)
        east = np.array([0.0, 1.0, 0.0])
        sat_ecef = up + east * 500.0  # tangent direction
        sat_eci = O.ecef_to_eci(sat_ecef, self.T0)
        _, el, _ = O.topocentric(sat_eci, station, self.T0)
        assert el == pytest.approx(0.0, abs=1e-9)

    def test_hand_geometry(self):
        # station at (0, 0); satellite over (0 N, 90 E) at station radius + 600 km
        station = O.GroundStation(0.0, 0.0, 0.0)
        sat_ecef = np.array([0.0, O.R_EARTH_KM + 600.0, 0.0])
        sat_eci = O.ecef_to_eci(sat_ecef, self.T0)
        az, el, _ = O.topocentric(sat_eci, station, self.T0)
        assert az == pytest.approx(90.0, abs=1e-9)
        assert el < 0.0


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
                _, el, _ = O.topocentric(O.propagate(sso, t_out), O.NGARI_STATION, t_out)
                assert el < threshold

    def test_window_validation(self, sso):
        with pytest.raises(ValueError):
            O.extract_passes(sso, O.NGARI_STATION, sso.epoch_posix, sso.epoch_posix)

    @pytest.mark.parametrize("step_s", [0.0, -5.0, math.nan, math.inf])
    def test_step_validation(self, sso, step_s):
        t0 = sso.epoch_posix
        with pytest.raises(ValueError, match="step_s"):
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 3600.0, step_s=step_s)

    @pytest.mark.parametrize("kwargs, name", [
        ({"threshold_deg": 95.0}, "threshold_deg"),
        ({"threshold_deg": -1.0}, "threshold_deg"),
        ({"step_s": 0.0}, "step_s"),
        ({"step_s": 1e-6}, "step_s"),
        ({"t_end_h": 200.0}, "t_end"),
        ({"t_end_h": 0.0}, "t_end"),
    ])
    def test_argument_error_names_parameter(self, sso, kwargs, name):
        t0 = sso.epoch_posix
        t1 = t0 + 3600.0 * kwargs.pop("t_end_h", 48.0)
        with pytest.raises(O.ArgumentError) as err:
            O.extract_passes(sso, O.NGARI_STATION, t0, t1, **kwargs)
        assert err.value.name == name

    def test_grid_size_bounded_before_allocation(self, sso):
        # 48 h at 1 us would be 1.7e11 samples (1.26 TiB); the check comes first
        t0 = sso.epoch_posix
        with pytest.raises(O.WindowError, match="samples"):
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 48 * 3600.0, step_s=1e-6)
        assert issubclass(O.WindowError, ValueError)

    def test_horizon_is_a_window_error(self, sso):
        t0 = sso.epoch_posix
        with pytest.raises(O.WindowError, match="horizon"):
            O.extract_passes(sso, O.NGARI_STATION, t0, t0 + 200 * 3600.0)

    def test_rate_bound_nearly_attained_at_zenith(self):
        # polar orbit crossing the zenith of an equatorial station under its node
        rec = T.make_tle(None, 90002, 2024, 1.0, 90.0, 0.0, 0.0, 0.0, 0.0, 15.22)
        station = O.GroundStation(0.0, -math.degrees(float(O.gmst_rad(rec.epoch_posix))) % 360.0)
        ts = rec.epoch_posix + np.arange(-240.0, 241.0, 1.0)
        el = O.topocentric(O.propagate(rec, ts), station, ts)[1]
        assert el.max() > 89.9
        bound = math.degrees(O.elevation_rate_bound(rec, station))
        assert 0.9 * bound < np.max(np.abs(np.diff(el))) <= bound

    def test_array_topocentric_matches_scalar(self, sso):
        ts = sso.epoch_posix + np.arange(0.0, 6000.0, 97.0)
        az, el, rng_km = O.topocentric(O.propagate(sso, ts), O.NGARI_STATION, ts)
        for k in range(0, len(ts), 7):
            one = O.topocentric(O.propagate(sso, ts[k]), O.NGARI_STATION, ts[k])
            assert all(type(v) is float for v in one)
            assert one == pytest.approx((az[k], el[k], rng_km[k]), abs=1e-9)


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
    return ts, O.topocentric(O.propagate(rec, ts), O.NGARI_STATION, ts)[1]


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
        beta = O._beta_from_state(*O.propagate_state(rec, ts), station, ts)
        el = np.array([
            O.topocentric(O.propagate(rec, t), station, t)[1] for t in ts[::40]
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
        text = (
            "t_iso8601,az_deg,el_deg\n"
            "2024-01-01T00:00:01.000000Z,10.0,20.0\n"
            "2024-01-01T00:00:00.000000Z,11.0,21.0\n"
        )
        with pytest.raises(ValueError):
            O.parse_pass_csv(text)
