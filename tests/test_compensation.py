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

    def test_sign_flag(self):
        assert C.compensation_angle(10.0, 0.0, 0.0, 100.0, sign=-1) == pytest.approx(95.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            C.compensation_angle(math.nan, 0.0, 0.0)


class TestQuantization:
    def test_design_accuracy(self):
        q = C.quantization_error(0.01)
        assert q.rotation_rad == pytest.approx(1.745e-4, rel=1e-3)  # the 0.017% figure
        assert q.infidelity == pytest.approx(math.sin(2 * math.radians(0.01)) ** 2, rel=1e-12)
        assert q.infidelity == pytest.approx(1.22e-7, rel=0.01)

    def test_zero(self):
        q = C.quantization_error(0.0)
        assert q.rotation_rad == 0.0
        assert q.infidelity == 0.0

    def test_tenth_degree(self):
        q = C.quantization_error(0.1)
        assert q.rotation_rad == pytest.approx(1.745e-3, rel=1e-3)
        assert q.infidelity == pytest.approx(1.22e-5, rel=0.01)


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
        fids = C.verify_compensation(sso_pass, J.IDEAL_MIRROR,
                                     zero_point_deg=zero, hwp_angles_deg=zero)
        az_u = np.unwrap(sso_pass.azimuth_deg, period=360.0)
        delta = np.radians(az_u + sso_pass.elevation_deg + sso_pass.beta_deg)
        assert np.max(np.abs(fids - np.cos(delta) ** 2)) < 1e-9

    def test_batched_matches_per_sample_composition(self, sso_pass):
        coating = J.MirrorResponse.from_powers(0.97, 0.91, 0.93 * math.pi)
        state = J.PolarizationState(0.6, 0.8j)
        fids = C.verify_compensation(sso_pass, coating, state=state, zero_point_deg=12.3)
        angles = C.schedule_from_pass(sso_pass, 12.3).angle_deg
        assert fids.shape == sso_pass.t_posix.shape
        for i in range(len(fids)):
            az = math.remainder(sso_pass.azimuth_deg[i], 360.0)
            direction = A.PointingDirection(az if az < 180.0 else az - 360.0,
                                            sso_pass.elevation_deg[i])
            chain = C.compensated_chain(direction, sso_pass.beta_deg[i], angles[i], coating)
            want = J.fidelity(chain.apply(state).normalized(), state)
            assert abs(fids[i] - want) <= 1e-12


AMPLITUDES = st.floats(-1.0, 1.0)


class TestZeroPoint:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(-math.pi, math.pi),
           st.tuples(AMPLITUDES, AMPLITUDES, AMPLITUDES, AMPLITUDES))
    def test_closed_form_reaches_dense_grid_optimum(self, rs, rp, gap, amps):
        norm = math.hypot(*amps)
        if norm < 1e-3:
            return
        state = J.PolarizationState(complex(*amps[:2]), complex(*amps[2:])).normalized()
        coating = J.MirrorResponse.from_powers(rs, rp, gap)
        zero = C.calibrate_zero_point(coating, state)
        assert 0.0 <= zero < 90.0

        reference = A.PointingDirection(0.0, 0.0)

        def fid(z):
            chain = C.compensated_chain(reference, 0.0, z, coating)
            return J.fidelity(chain.apply(state).normalized(), state)

        grid = fid(np.arange(0.0, 180.0, 0.01))
        assert fid(zero) >= np.max(grid) - 1e-12

    def test_isotropic_case_returns_zero(self):
        # circular light through ideal mirrors: the HWP flips its handedness at
        # every angle, so every z is equally (un)fit
        circular = J.PolarizationState(1.0, 1j).normalized()
        assert C.calibrate_zero_point(J.IDEAL_MIRROR, circular) == 0.0

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            C.calibrate_zero_point(J.IDEAL_MIRROR, J.PolarizationState(2.0, 0.0))
