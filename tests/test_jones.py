import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim import antenna as A
from polsim import jones as J
from conftest import haar_unitary

H = J.PolarizationState.h()
V = J.PolarizationState.v()
PLUS = J.PolarizationState.plus()
MINUS = J.PolarizationState.minus()


class TestStates:
    def test_basis_states_normalized(self):
        for s in (H, V, PLUS, MINUS):
            assert abs(s.norm_sq() - 1.0) < 1e-12

    def test_normalize_invariant(self, rng):
        for _ in range(50):
            raw = J.PolarizationState(
                complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            )
            assert abs(raw.normalized().norm_sq() - 1.0) < 1e-12

    def test_global_phase_unobservable(self, rng):
        for _ in range(20):
            gamma = rng.uniform(0, 2 * math.pi)
            shifted = J.PolarizationState(
                PLUS.a_h * np.exp(1j * gamma), PLUS.a_v * np.exp(1j * gamma)
            )
            assert J.fidelity(PLUS, shifted) == pytest.approx(1.0, abs=1e-12)

    def test_linear_axis(self):
        assert H.linear_axis() == pytest.approx(0.0)
        assert V.linear_axis() == pytest.approx(math.pi / 2)
        assert PLUS.linear_axis() == pytest.approx(math.pi / 4)
        assert MINUS.linear_axis() == pytest.approx(-math.pi / 4)


class TestWaveplates:
    def test_hwp_aligned_fast_axis(self):
        out = J.hwp(0.0).apply(H)
        assert J.fidelity(out.normalized(), H) == pytest.approx(1.0, abs=1e-12)

    def test_hwp_rotates_h_to_plus(self):
        out = J.hwp(math.pi / 8).apply(H).normalized()
        assert J.fidelity(out, PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_hwp_swaps_h_v(self):
        out = J.hwp(math.pi / 4).apply(H).normalized()
        assert J.fidelity(out, V) == pytest.approx(1.0, abs=1e-12)

    def test_qwp_aligned_fast_axis(self):
        out = J.qwp(0.0).apply(H).normalized()
        assert J.fidelity(out, H) == pytest.approx(1.0, abs=1e-12)

    def test_qwp_makes_circular(self):
        out = J.qwp(math.pi / 4).apply(H)
        assert abs(out.a_h) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.a_v) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_qwp_squared_is_hwp(self):
        # direct matrix multiplication oracle at theta = 0.3 rad
        theta = 0.3
        product = J.qwp(theta).matrix @ J.qwp(theta).matrix
        assert np.max(np.abs(product - J.hwp(theta).matrix)) < 1e-12

    def test_unitarity_sweep(self, rng):
        for _ in range(200):
            angle = rng.uniform(-10, 10)
            for make in (J.hwp, J.qwp, J.rotator):
                assert make(angle).is_unitary(atol=1e-12)

    def test_hwp_doubling_rule(self, rng):
        # hwp(a) sends linear at g to linear at 2a - g
        for _ in range(200):
            a, g = rng.uniform(-math.pi, math.pi, size=2)
            out = J.hwp(a).apply(J.PolarizationState.linear(g)).normalized()
            target = J.PolarizationState.linear(2 * a - g)
            assert J.fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_angle_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                J.hwp(bad)
            with pytest.raises(ValueError):
                J.qwp(bad)


class TestPolarizer:
    def test_full_transmission(self):
        assert J.polarizer(0.0).apply(H).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_crossed(self):
        assert J.polarizer(math.pi / 2).apply(H).norm_sq() == pytest.approx(0.0, abs=1e-12)

    def test_malus_example(self):
        assert J.polarizer(math.pi / 6).apply(H).norm_sq() == pytest.approx(0.75, abs=1e-12)

    def test_malus_sweep(self, rng):
        for _ in range(200):
            a, g = rng.uniform(-math.pi, math.pi, size=2)
            intensity = J.polarizer(a).apply(J.PolarizationState.linear(g)).norm_sq()
            assert intensity == pytest.approx(math.cos(a - g) ** 2, abs=1e-12)

    def test_projector(self, rng):
        for _ in range(50):
            m = J.polarizer(rng.uniform(-math.pi, math.pi)).matrix
            assert np.max(np.abs(m @ m - m)) < 1e-12


class TestMirror:
    def test_unit_response_is_identity(self):
        el = J.mirror_element(J.MirrorResponse(1.0, 1.0))
        assert np.allclose(el.matrix, np.eye(2), atol=1e-15)

    def test_ideal_mirror_flips_diagonal(self):
        out = J.mirror_element(J.IDEAL_MIRROR).apply(PLUS).normalized()
        assert J.fidelity(out, MINUS) == pytest.approx(1.0, abs=1e-12)

    def test_measured_coating_response(self):
        # vendor-measured coating: powers 0.999908 / 0.998168, phase gap 0.9996 pi
        resp = J.MirrorResponse.from_powers(0.999908, 0.998168, 0.9996 * math.pi)
        assert abs(resp.r_s) ** 2 == pytest.approx(0.999908, abs=1e-12)
        assert abs(resp.r_p) ** 2 == pytest.approx(0.998168, abs=1e-12)
        assert resp.phase_gap == pytest.approx(0.9996 * math.pi, abs=1e-12)
        out = J.mirror_element(resp).apply(PLUS).normalized()
        assert J.fidelity(out, MINUS) >= 0.999

    def test_gain_rejected(self):
        with pytest.raises(ValueError):
            J.MirrorResponse(1.2, 0.9)


class TestMetrics:
    def test_fidelity_anchors(self):
        assert J.fidelity(H, H) == pytest.approx(1.0, abs=1e-12)
        assert J.fidelity(H, V) == pytest.approx(0.0, abs=1e-12)
        assert J.fidelity(H, PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_symmetric(self, rng):
        from conftest import random_pure_qubit

        for _ in range(50):
            a = random_pure_qubit(rng)
            b = random_pure_qubit(rng)
            sa = J.PolarizationState(a[0], a[1])
            sb = J.PolarizationState(b[0], b[1])
            assert J.fidelity(sa, sb) == pytest.approx(J.fidelity(sb, sa), abs=1e-12)

    def test_fidelity_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            J.fidelity(J.PolarizationState(2.0, 0.0), H)

    def test_per_fidelity_anchors(self):
        assert abs(J.per_to_fidelity(887) - 0.99887) < 5e-6
        assert abs(J.per_to_fidelity(445) - 0.99776) < 5e-6
        assert J.per_to_fidelity(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_per_fidelity_roundtrip(self, rng):
        # p -> f -> p: f = p/(p+1) saturates toward 1, so round-trip relative
        # accuracy degrades as eps*p; assert 1e-12 where floats can deliver it
        def fidelity_to_per(f):  # the inverse of f = p/(p+1) on (0, 1)
            return f / (1.0 - f)

        for _ in range(200):
            per = 10.0 ** rng.uniform(-3, 3)
            assert fidelity_to_per(J.per_to_fidelity(per)) == pytest.approx(per, rel=1e-12)
        for _ in range(200):
            per = 10.0 ** rng.uniform(3, 9)
            assert fidelity_to_per(J.per_to_fidelity(per)) == pytest.approx(per, rel=per * 1e-15)
        for _ in range(200):
            f = rng.uniform(0.5 + 1e-6, 1.0 - 1e-9)
            assert J.per_to_fidelity(fidelity_to_per(f)) == pytest.approx(f, abs=1e-12)

    def test_per_domain(self):
        with pytest.raises(ValueError):
            J.per_to_fidelity(0.0)
        with pytest.raises(ValueError):
            J.per_to_fidelity(-3.0)

    def test_measure_per(self):
        assert J.measure_per(H, 0.0) == J.PER_CAP
        assert J.measure_per(PLUS, 0.0) == pytest.approx(1.0, abs=1e-12)
        # ratio-of-squared-amplitudes oracle
        state = J.PolarizationState(0.9993, 0.0374)
        expected = 0.9993**2 / 0.0374**2
        assert J.measure_per(state, 0.0) == pytest.approx(expected, rel=1e-12)
        assert J.measure_per(state, 0.0) == pytest.approx(714.0, abs=0.5)

    def test_measure_per_overflowing_ratio_is_capped(self):
        # i_max / i_min = 1e320 overflows; it is clamped like any PER above the cap
        assert J.measure_per(J.PolarizationState(1.0, 1e-160), 0.0) == J.PER_CAP


class TestFiberCompensation:
    def gadget(self, angles):
        q1, h, q2 = angles
        return J.qwp(q1) @ J.hwp(h) @ J.qwp(q2)

    def test_identity_channel(self):
        q1, h, q2 = J.solve_fiber_compensation(J.identity_element())
        m = (self.gadget((q1, h, q2))).matrix
        assert J._phase_aligned_residual(m) < 1e-6

    def test_hwp_channel_apply_and_check(self):
        channel = J.hwp(0.2)
        angles = J.solve_fiber_compensation(channel)
        combo = self.gadget(angles) @ channel
        for state in (H, PLUS):
            out = combo.apply(state).normalized()
            assert J.fidelity(out, state) >= 1.0 - 1e-9

    def test_hundred_random_unitaries(self, rng):
        for _ in range(100):
            channel = J.OpticalElement.from_matrix(haar_unitary(rng))
            angles = J.solve_fiber_compensation(channel)
            residual = J._phase_aligned_residual((self.gadget(angles) @ channel).matrix)
            assert residual < 1e-6
            for angle in angles:
                assert -math.pi / 2 <= angle < math.pi / 2

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            J.solve_fiber_compensation(J.polarizer(0.3))


ANGLE_ARRAYS = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30).map(np.array)
PASSIVE_COATINGS = st.builds(J.MirrorResponse.from_powers, st.floats(0.0, 1.0),
                             st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


class TestBroadcasting:
    """Array angles give batches of elements, one per angle."""

    @given(ANGLE_ARRAYS)
    def test_rotators_and_waveplates_unitary(self, angles):
        for make in (J.rotator, J.hwp, J.qwp, lambda a: J.waveplate(a, 0.7)):
            m = make(angles).matrix
            assert m.shape == angles.shape + (2, 2)
            gram = np.conj(np.swapaxes(m, -1, -2)) @ m
            assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    @settings(deadline=None)
    @given(PASSIVE_COATINGS, st.lists(st.floats(-180.0, 179.999), min_size=1, max_size=10),
           st.lists(st.floats(0.0, 90.0), min_size=1, max_size=10))
    def test_passive_mirrors_operator_norm(self, coating, azimuths, elevations):
        assert np.linalg.norm(J.mirror_element(coating).matrix, 2) <= 1.0 + 1e-12
        direction = A.PointingDirection(np.array(azimuths), np.array(elevations)[:, None])
        head = A.scanning_head_jones(direction, coating).matrix
        assert head.shape == (len(elevations), len(azimuths), 2, 2)
        assert np.all(np.linalg.norm(head, 2, axis=(-2, -1)) <= 1.0 + 1e-12)

    @given(st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
                    min_size=1, max_size=30))
    def test_hwp_reflects_linear_states(self, pairs):
        a, g = np.array(pairs).T
        out = J.hwp(a).apply(J.PolarizationState(np.cos(g), np.sin(g)))
        assert np.max(np.abs(out.a_h - np.cos(2 * a - g))) < 1e-12
        assert np.max(np.abs(out.a_v - np.sin(2 * a - g))) < 1e-12

    def test_batch_equals_scalar_composition(self, rng):
        a, b = rng.uniform(-math.pi, math.pi, size=(2, 40))
        state = J.PolarizationState(0.6, 0.8j)
        batch = (J.qwp(a) @ J.rotator(b)).apply(state).normalized()
        per = J.measure_per(batch, a)
        fid = J.fidelity(batch, state)
        for k in range(len(a)):
            one = (J.qwp(a[k]) @ J.rotator(b[k])).apply(state).normalized()
            assert abs(batch.a_h[k] - one.a_h) < 1e-14 and abs(batch.a_v[k] - one.a_v) < 1e-14
            assert per[k] == pytest.approx(J.measure_per(one, a[k]), rel=1e-12)
            assert fid[k] == pytest.approx(J.fidelity(one, state), abs=1e-14)
        assert np.array_equal(batch.vector, np.stack([batch.a_h, batch.a_v], axis=-1))
