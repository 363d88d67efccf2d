import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim import antenna as A
from polsim import compensation as C
from polsim import jones as J
from polsim import linksim as L
from polsim import orbit as O
from polsim import tle as T
from polsim.table import read_table
from reference import is_north_to_south

DATA = Path(__file__).resolve().parents[1] / "src" / "polsim" / "data"


@pytest.fixture(scope="module")
def sso_pass():
    rec = T.load_tle_file(DATA / "sso_500km.tle")
    t0 = rec.epoch_posix
    passes = O.extract_passes(rec, O.NGARI_STATION, t0, t0 + 2 * 86400.0, threshold_deg=10.0)
    ns = sorted(filter(is_north_to_south, passes), key=lambda p: -p.duration_s)
    return ns[0]


ANGLE_BATCHES = st.integers(1, 20).flatmap(lambda n: st.tuples(*[
    st.lists(st.floats(-720.0, 720.0), min_size=n, max_size=n).map(np.array)] * 3))


class TestAngleFormula:
    def test_zero_point_alone(self):
        assert C.compensation_angle(0.0, 0.0, 0.0, 145.8) == pytest.approx(145.8)

    def test_direct_sum(self):
        assert C.compensation_angle(10.0, 20.0, 6.0, 145.8) == pytest.approx(163.8)

    def test_wrap_case(self):
        assert C.compensation_angle(40.0, 30.0, -1.6, 145.8) == pytest.approx(0.0, abs=1e-12)

    def test_range(self, rng):
        for _ in range(300):
            a = C.compensation_angle(
                rng.uniform(-720, 720), rng.uniform(0, 90), rng.uniform(-90, 90)
            )
            assert 0.0 <= a < 180.0

    def test_affine_slope_half(self, rng):
        # finite differences, away from the mod-180 seam
        for _ in range(100):
            th, ph, be = rng.uniform(0, 20, size=3)
            base = C.compensation_angle(th, ph, be, zero_point_deg=30.0)
            d = 1e-3
            for args in ((th + d, ph, be), (th, ph + d, be), (th, ph, be + d)):
                stepped = C.compensation_angle(*args, zero_point_deg=30.0)
                assert (stepped - base) / d == pytest.approx(0.5, abs=1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            C.compensation_angle(math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("zero", [1e300, -361.0])
    def test_zero_point_out_of_range_rejected(self, zero):
        # the range check_tracking gives the CLI holds for every HWP command
        for call in (lambda: C.compensation_angle(10.0, 20.0, 0.0, zero),
                     lambda: L.offset_scan([0.0], [0.0], J.IDEAL_MIRROR, zero_point_deg=zero)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"zero point must be in [-360, 360] degrees, got {zero!r}"

    @pytest.mark.parametrize("zero", [-360.0, 360.0])
    def test_zero_point_range_is_closed(self, zero):
        C.check_tracking(zero, 5.0)
        assert C.compensation_angle(10.0, 20.0, 0.0, zero) == 15.0

    def test_zero_slew_limit_refused(self):
        with pytest.raises(ValueError, match=r"^slew limit must be positive, got 0\.0$"):
            C.check_tracking(145.8, 0.0)

    @given(ANGLE_BATCHES, st.floats(-360.0, 360.0))
    def test_batch_equals_per_element(self, batch, zero):
        theta, phi, beta = batch
        angles = C.compensation_angle(theta, phi, beta, zero)
        assert angles.shape == theta.shape
        for k in range(len(theta)):
            assert angles[k] == C.compensation_angle(theta[k], phi[k], beta[k], zero)

    @given(ANGLE_BATCHES, st.integers(0, 2), st.integers(0, 19),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_anywhere_in_batch_rejected(self, batch, which, index, bad):
        args = [a.copy() for a in batch]
        args[which][index % len(args[which])] = bad
        with pytest.raises(ValueError):
            C.compensation_angle(*args)


def plate_error_infidelity(accuracy_deg):
    """1 - F of H through hwp(a + accuracy) against hwp(a), at several plate
    angles a; each should be the worst-case figure sin^2(2 * accuracy)."""
    h = J.PolarizationState.h()
    return [1.0 - J.fidelity(J.hwp(math.radians(a + accuracy_deg)).apply(h),
                             J.hwp(math.radians(a)).apply(h))
            for a in (0.0, 22.5, 37.0, C.DEFAULT_ZERO_POINT_DEG)]


class TestQuantization:
    """The HWP-accuracy figure: a plate set off by d turns the output by 2d."""

    def test_design_accuracy(self):
        # 0.01 deg of plate accuracy is 1.745e-4 rad, the paper's 0.017%
        assert math.radians(0.01) == pytest.approx(1.745e-4, rel=1e-3)
        expected = math.sin(2 * math.radians(0.01)) ** 2
        assert expected == pytest.approx(1.22e-7, rel=0.01)
        assert plate_error_infidelity(0.01) == pytest.approx([expected] * 4, rel=0, abs=1e-15)

    def test_zero(self):
        assert plate_error_infidelity(0.0) == pytest.approx([0.0] * 4, rel=0, abs=1e-15)

    def test_tenth_degree(self):
        expected = math.sin(2 * math.radians(0.1)) ** 2
        assert expected == pytest.approx(1.22e-5, rel=0.01)
        assert plate_error_infidelity(0.1) == pytest.approx([expected] * 4, rel=0, abs=1e-15)


class TestSchedule:
    def test_constant_pass_constant_schedule(self):
        t = np.arange(0.0, 10.0)
        p = O.PassProfile(t, np.full_like(t, 30.0), np.full_like(t, 40.0), np.zeros_like(t))
        sched = C.schedule_from_pass(p)
        assert np.all(sched.angle_deg == sched.angle_deg[0])
        assert sched.max_rate_deg_per_s == 0.0
        assert sched.warnings == ()

    def test_rate_bound_on_synthetic_pass(self, sso_pass):
        sched = C.schedule_from_pass(sso_pass)
        # finite-difference oracle on the unwrapped series
        az_u = np.unwrap(sso_pass.azimuth_deg, period=360.0)
        raw = 145.8 + (az_u + sso_pass.elevation_deg + sso_pass.beta_deg) / 2.0
        fd = np.max(np.abs(np.diff(raw) / np.diff(sso_pass.t_posix)))
        assert sched.max_rate_deg_per_s == pytest.approx(fd, rel=1e-12)
        assert sched.max_rate_deg_per_s < 0.5

    def test_rates_on_quarter_second_pass(self):
        # 0.25 s rows between a rise and a set that sit off the grid, as
        # refined crossings do; azimuth crosses north, so it is unwrapped
        s = np.concatenate([[0.0], 0.13 + 0.25 * np.arange(40.0), [0.13 + 0.25 * 39 + 0.07]])
        az = (350.0 + 2.0 * s + 0.01 * s**2) % 360.0
        el, beta = 10.0 + 3.0 * s - 0.02 * s**2, -20.0 + 0.5 * s
        t = 1.6e9 + s
        sched = C.schedule_from_pass(O.PassProfile(t, az, el, beta), zero_point_deg=20.0,
                                     max_slew_deg_per_s=1e9)
        raw = 20.0 + (np.unwrap(az, period=360.0) + el + beta) / 2.0
        want = np.concatenate([[0.0], np.diff(raw) / np.diff(t)])
        np.testing.assert_allclose(sched.rate_deg_per_s, want, rtol=1e-9, atol=0.0)
        # the command moves as 2.75 s - 0.0025 s^2 deg, so a secant is 2.75 - 0.005 (s0 + s1)
        secants = 2.75 - 0.005 * (s[:-1] + s[1:])
        np.testing.assert_allclose(sched.rate_deg_per_s[[1, -1]], secants[[0, -1]], rtol=1e-6)

    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(*[
        st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)
        for lo, hi in ((0.0, 359.999), (0.0, 90.0), (-180.0, 179.999))])),
        st.floats(0.0, 180.0))
    def test_angles_are_compensation_angle_of_unwrapped_series(self, series, zero):
        az, el, beta = series
        p = O.PassProfile(np.arange(float(len(az))), az, el, beta)
        sched = C.schedule_from_pass(p, zero, max_slew_deg_per_s=1e9)
        expected = C.compensation_angle(np.unwrap(az, period=360.0), el,
                                        np.unwrap(beta, period=360.0), zero)
        assert np.array_equal(sched.angle_deg, expected)

    @given(st.lists(st.one_of(st.floats(-90.0, 90.0), st.just(-0.0)), min_size=1, max_size=30),
           st.lists(st.sampled_from([0.0, 360.0, -360.0, 720.0]), min_size=30, max_size=30))
    def test_unwrap_equals_numpy(self, values, seams):
        # values within +-90 deg step under 180 deg (exactly 180 only from one
        # end to the other) and keep their -0.0; added seams need np.unwrap
        base = np.array(values)
        for series in (base, base + np.array(seams[:len(base)])):
            got, expected = C._unwrap_deg(series), np.unwrap(series, period=360.0)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_angles_reduced_and_continuous(self, sso_pass):
        sched = C.schedule_from_pass(sso_pass)
        assert np.all(sched.angle_deg >= 0.0)
        assert np.all(sched.angle_deg < 180.0)
        # unwrapped series continuity: jumps stay below 1 deg at 1 s cadence
        assert np.max(np.abs(sched.rate_deg_per_s)) < 1.0

    def test_step_discontinuity_warns(self, sso_pass):
        beta = sso_pass.beta_deg.copy()
        beta[len(beta) // 2:] += 15.0
        bumpy = O.PassProfile(sso_pass.t_posix, sso_pass.azimuth_deg,
                              sso_pass.elevation_deg, beta)
        sched = C.schedule_from_pass(bumpy)
        assert len(sched.warnings) == 1
        assert "slew" in sched.warnings[0]
        # a rate exactly at the limit is within it
        limit = sched.max_rate_deg_per_s
        assert C.schedule_from_pass(bumpy, max_slew_deg_per_s=limit).warnings == ()

    def test_csv_and_metadata_roundtrip(self, sso_pass, tmp_path):
        sched = C.schedule_from_pass(sso_pass)
        times, angles, rates = np.array(read_table(sched.to_csv(), C.SCHEDULE_FORMAT)).T
        assert np.allclose(times, sched.t_posix, atol=1e-6)
        assert np.allclose(angles, sched.angle_deg)
        assert np.allclose(rates, sched.rate_deg_per_s)
        meta = json.loads(sched.metadata_json())
        assert meta["zero_point_deg"] == 145.8
        assert meta["max_rate_deg_per_s"] == sched.max_rate_deg_per_s
        assert meta["warnings"] == []


class TestVerification:
    def test_calibrated_zero_point_ideal(self):
        zero = C.calibrate_zero_point(J.IDEAL_MIRROR)
        assert zero == pytest.approx(0.0, abs=1e-6) or zero == pytest.approx(90.0, abs=1e-6)

    def test_exact_inversion_random_triples(self, rng):
        zero = C.calibrate_zero_point(J.IDEAL_MIRROR)
        h = J.PolarizationState.h()
        for _ in range(1000):
            th = rng.uniform(-180.0, 180.0)
            ph = rng.uniform(0.0, 90.0)
            be = rng.uniform(-90.0, 90.0)
            alpha = C.compensation_angle(th, ph, be, zero_point_deg=zero)
            chain = C.compensated_chain(A.PointingDirection(th, ph), be, alpha, J.IDEAL_MIRROR)
            assert J.fidelity(chain.apply(h).normalized(), h) >= 1.0 - 1e-9

    def test_ideal_mirrors_full_pass(self, sso_pass):
        fids = C.verify_compensation(sso_pass, J.IDEAL_MIRROR)
        assert np.min(fids) >= 1.0 - 1e-9

    def test_coated_mirrors_full_pass(self, sso_pass):
        fids = C.verify_compensation(sso_pass, A.HR_COATING)
        assert np.min(fids) >= 0.995

    def test_disabled_schedule_matches_rotation_oracle(self, sso_pass):
        # fixed HWP: fidelity drops as cos^2 of the accumulated frame rotation
        zero = C.calibrate_zero_point(J.IDEAL_MIRROR)
        h = J.PolarizationState.h()
        az = (sso_pass.azimuth_deg + 180.0) % 360.0 - 180.0
        chain = C.compensated_chain(A.PointingDirection(az, sso_pass.elevation_deg),
                                    sso_pass.beta_deg, zero, J.IDEAL_MIRROR)
        fids = J.fidelity(chain.apply(h).normalized(), h)
        az_u = np.unwrap(sso_pass.azimuth_deg, period=360.0)
        delta = np.radians(az_u + sso_pass.elevation_deg + sso_pass.beta_deg)
        assert np.max(np.abs(fids - np.cos(delta) ** 2)) < 1e-9

    def test_batched_matches_per_sample_composition(self, sso_pass):
        coating = J.MirrorResponse.from_powers(0.97, 0.91, 0.93 * math.pi)
        state = J.PolarizationState.h()
        fids = C.verify_compensation(sso_pass, coating, zero_point_deg=12.3)
        angles = C.schedule_from_pass(sso_pass, 12.3).angle_deg
        assert fids.shape == sso_pass.t_posix.shape
        for i in range(len(fids)):
            az = math.remainder(sso_pass.azimuth_deg[i], 360.0)
            direction = A.PointingDirection(az if az < 180.0 else az - 360.0,
                                            sso_pass.elevation_deg[i])
            chain = C.compensated_chain(direction, sso_pass.beta_deg[i], angles[i], coating)
            want = J.fidelity(chain.apply(state).normalized(), state)
            assert abs(fids[i] - want) <= 1e-12


class TestZeroPoint:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(-math.pi, math.pi))
    def test_closed_form_reaches_dense_grid_optimum(self, rs, rp, gap):
        state = J.PolarizationState.h()
        coating = J.MirrorResponse.from_powers(rs, rp, gap)
        zero = C.calibrate_zero_point(coating)
        assert 0.0 <= zero < 90.0

        reference = A.PointingDirection(0.0, 0.0)

        def fid(z):
            chain = C.compensated_chain(reference, 0.0, z, coating)
            return J.fidelity(chain.apply(state).normalized(), state)

        grid = fid(np.arange(0.0, 180.0, 0.01))
        assert fid(zero) >= np.max(grid) - 1e-12
