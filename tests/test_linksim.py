import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from polsim import antenna as A
from polsim import jones as J
from polsim import linksim as L
from polsim.table import read_table
from conftest import random_pure_qubit
from reference import (TwoQubitState, chsh_analytic, correlation, density_matrix_counts,
                       make_source)

SQRT8 = 2.0 * math.sqrt(2.0)
ANGLES = st.floats(-math.pi, math.pi)


def bootstrap_loop(counts, n_boot, boot_seed):
    """Reference bootstrap: one Poisson resample of the 4x4 counts per pass.
    Returns (sigma_E, sigma_S, number of per-setting resamples with n = 0)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([boot_seed, 2**32], dtype=np.uint64)))
    quads = np.asarray(counts, dtype=float)
    e_samples = np.empty((n_boot, 4))
    empty = 0
    for b in range(n_boot):
        resampled = rng.poisson(quads)
        for k in range(4):
            same = resampled[k, 0] + resampled[k, 1]
            cross = resampled[k, 2] + resampled[k, 3]
            n = same + cross
            empty += n == 0
            e_samples[b, k] = (same - cross) / n if n > 0 else 0.0
    s_boot = np.abs(e_samples[:, 0] - e_samples[:, 1] + e_samples[:, 2] + e_samples[:, 3])
    return (tuple(float(x) for x in np.std(e_samples, axis=0, ddof=1)),
            float(np.std(s_boot, ddof=1)), empty)


class TestSource:
    def test_pure(self):
        state = make_source(1.0)
        assert state.fidelity_to_phi_plus() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        state = make_source(0.25)
        assert np.allclose(state.rho, np.eye(4) / 4.0, atol=1e-15)

    def test_flight_source_visibility(self):
        state = make_source(0.9329)
        assert state.fidelity_to_phi_plus() == pytest.approx(0.9329, abs=1e-12)
        # V = (4F - 1)/3
        v = (4.0 * 0.9329 - 1.0) / 3.0
        assert v == pytest.approx(0.91053, abs=5e-6)

    def test_range_guard(self):
        for bad in (0.2, 1.01):
            with pytest.raises(ValueError):
                make_source(bad)

    def test_state_invariants(self, rng):
        for _ in range(20):
            state = make_source(rng.uniform(0.25, 1.0))
            rho = state.rho
            assert np.allclose(rho, rho.conj().T, atol=1e-12)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestCorrelation:
    def test_perfect_hv(self):
        assert correlation(make_source(1.0), 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_settings(self):
        assert correlation(make_source(1.0), 0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_werner_value(self):
        # density-matrix trace oracle: V cos(2(p1-p2))
        v = 0.91053333333
        e = correlation(make_source((3 * v + 1) / 4), 0.0, math.pi / 8)
        assert e == pytest.approx(v * math.cos(math.pi / 4), abs=1e-9)

    def test_werner_identity_sweep(self, rng):
        for _ in range(200):
            f = rng.uniform(0.25, 1.0)
            p1, p2 = rng.uniform(0.0, math.pi, size=2)
            v = (4.0 * f - 1.0) / 3.0
            got = correlation(make_source(f), p1, p2)
            assert got == pytest.approx(v * math.cos(2.0 * (p1 - p2)), abs=1e-12)


class TestChshAnalytic:
    def test_tsirelson_at_test_settings(self):
        assert chsh_analytic(make_source(1.0)) == pytest.approx(SQRT8, abs=1e-12)

    def test_maximally_mixed_zero(self):
        assert chsh_analytic(make_source(0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_scaling(self, rng):
        for _ in range(50):
            f = rng.uniform(0.25, 1.0)
            v = (4.0 * f - 1.0) / 3.0
            assert chsh_analytic(make_source(f)) == pytest.approx(SQRT8 * v, abs=1e-12)

    def test_tsirelson_bound_random_states(self, rng):
        # random mixtures of random pure two-qubit states, random settings
        for _ in range(200):
            vecs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            weights = rng.dirichlet(np.ones(3))
            rho = sum(
                w * np.outer(v, v.conj()) / np.vdot(v, v).real
                for w, v in zip(weights, vecs)
            )
            state = TwoQubitState((rho + rho.conj().T) / 2 / np.trace(rho).real)
            a, b = rng.uniform(0, math.pi, size=2)
            settings = ((a, b), (a, b + math.pi / 4), (a + math.pi / 4, b),
                        (a + math.pi / 4, b + math.pi / 4))
            assert chsh_analytic(state, settings) <= SQRT8 + 1e-9

    def test_classical_bound_product_states(self, rng):
        for _ in range(1000):
            q1 = random_pure_qubit(rng)
            q2 = random_pure_qubit(rng)
            v = np.kron(q1, q2)
            state = TwoQubitState(np.outer(v, v.conj()))
            a, b = rng.uniform(0, math.pi, size=2)
            settings = ((a, b), (a, b + math.pi / 8), (a + math.pi / 8, b),
                        (a + math.pi / 8, b + math.pi / 8))
            assert chsh_analytic(state, settings) <= 2.0 + 1e-9


class TestSimulation:
    def test_perfect_correlations(self):
        src = L.SourceModel(1.0, 1e6)
        ch = L.ChannelModel(0.0)
        # negligible window so the singles-accidental floor stays at zero
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-15, integration_time_s=1.0)
        c_pp, c_mm, c_pm, c_mp = L.simulate_coincidences(src, ch, det, 0.0, 0.0, seed=3)
        total = c_pp + c_mm
        assert abs(total - 1e6) < 5.0 * math.sqrt(1e6)
        assert c_pm + c_mp <= 5  # 5-sigma of a ~zero-mean Poisson

    def test_loss_scaling(self):
        # expectation bookkeeping oracle at 46 dB
        src = L.SourceModel(1.0, 1e6)
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-15, integration_time_s=100.0)
        counts = L.simulate_coincidences(src, L.ChannelModel(46.0), det, 0.0, 0.0, seed=4)
        expected = 1e6 * 10.0 ** (-4.6) * 100.0
        assert abs(sum(counts) - expected) < 5.0 * math.sqrt(expected)

    def test_loss_linearity_in_db(self):
        # doubling dB loss divides expected counts by the right power of ten
        src = L.SourceModel(1.0, 1e8)
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-15, integration_time_s=100.0)
        n20 = sum(L.simulate_coincidences(src, L.ChannelModel(20.0), det, 0.0, 0.0, seed=5))
        n40 = sum(L.simulate_coincidences(src, L.ChannelModel(40.0), det, 0.0, 0.0, seed=6))
        expected40 = 1e8 * 1e-4 * 100.0
        assert abs(n40 - expected40) < 5.0 * math.sqrt(expected40)
        assert abs(n20 - expected40 * 100.0) < 5.0 * math.sqrt(expected40 * 100.0)

    def test_dark_count_accidentals(self):
        # Poisson product oracle: accidental mean = dark^2 * window * time
        src = L.SourceModel(1.0, 1e-9)  # effectively source-off
        ch = L.ChannelModel(0.0)
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=1000.0,
                               coincidence_window_s=1e-6, integration_time_s=100.0)
        counts = L.simulate_coincidences(src, ch, det, 0.0, 0.0, seed=7)
        mean = 1000.0**2 * 1e-6 * 100.0
        for c in counts:
            assert abs(c - mean) < 5.0 * math.sqrt(mean)

    def test_deterministic_per_seed(self):
        src = L.SourceModel(0.9329, 1e6)
        ch = L.ChannelModel(46.0)
        det = L.DetectionModel()
        a = L.simulate_chsh_counts(src, ch, det, seed=11)
        b = L.simulate_chsh_counts(src, ch, det, seed=11)
        c = L.simulate_chsh_counts(src, ch, det, seed=12)
        assert a == b
        assert a != c

    def test_channel_rotation_applied_to_uplink_photon(self):
        # rotating photon 1 by pi/4 kills the (0, 0) correlation of Phi+ and
        # moves the perfect correlation to a satellite analyzer at pi/4
        src = L.SourceModel(1.0, 1e6)
        ch = L.ChannelModel(0.0, rotation=J.rotator(math.pi / 4))
        # a window this short leaves the accidentals below 1e-12 of the true counts
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-24, integration_time_s=1.0)

        def e(phi1, phi2):
            return L._correlation_from_counts(L._expected_counts(src, ch, det, phi1, phi2))[0]

        assert e(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert e(math.pi / 4, 0.0) == pytest.approx(1.0, abs=1e-12)
        # E = cos 2(phi2 + pi/4 - phi1): turning the ground analyzer goes the other way
        assert e(0.0, math.pi / 4) == pytest.approx(-1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.25, 1.0), st.floats(0.0, 1.0), ANGLES, st.floats(0.0, 2.0 * math.pi),
           ANGLES, ANGLES, ANGLES, st.floats(0.0, 80.0), st.floats(1.0, 1e9),
           st.floats(1e-3, 1.0), st.floats(0.0, 1e5), st.floats(1e-12, 1e-6),
           st.floats(1e-3, 1e3))
    def test_closed_form_matches_density_matrix(self, fid, depol, wp_angle, retardance, rot,
                                                phi1, phi2, loss, rate, eff, dark, window, t_int):
        src = L.SourceModel(fid, rate)
        ch = L.ChannelModel(loss, J.waveplate(wp_angle, retardance) @ J.rotator(rot), depol)
        det = L.DetectionModel(eff, dark, window, t_int)
        got = L._expected_counts(src, ch, det, phi1, phi2)
        want = density_matrix_counts(src, ch, det, phi1, phi2)
        # a port pair with zero probability carries only the reference's rounding
        # noise, so the absolute floor is relative to the largest mean
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("element", [
        J.OpticalElement(1.0, 1.0, 0.0, 0.0),  # Frobenius norm^2 = 2, like a unitary
        J.polarizer(0.3),
        J.mirror_element(J.MirrorResponse.from_powers(0.99, 0.98, math.pi)),
    ])
    def test_non_unitary_rotation_rejected(self, element):
        with pytest.raises(ValueError, match="unitary"):
            L.ChannelModel(0.0, rotation=element)

    @pytest.mark.parametrize("build", [
        lambda: L.ChannelModel(math.inf),
        lambda: L.ChannelModel(math.nan),
        lambda: L.SourceModel(0.9, math.inf),
        lambda: L.DetectionModel(dark_rate_hz=math.nan),
        lambda: L.DetectionModel(integration_time_s=math.inf),
    ])
    def test_non_finite_model_values_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestEstimator:
    def test_perfect_correlation_degenerate_sigma(self):
        result = L.estimate_chsh([(100, 100, 0, 0)] * 4)
        assert result.correlations[0] == 1.0
        assert result.correlation_errors[0] == 0.0

    def test_equal_counts(self):
        result = L.estimate_chsh([(50, 50, 50, 50)] * 4)
        assert result.correlations[0] == 0.0
        assert result.correlation_errors[0] == pytest.approx(1.0 / math.sqrt(200.0), abs=1e-12)

    def test_propagation_formula_oracle(self, rng):
        # full partial-derivative propagation, done longhand
        for _ in range(50):
            quad = rng.integers(1, 500, size=4).astype(float)
            result = L.estimate_chsh([quad] * 4)
            c_pp, c_mm, c_pm, c_mp = quad
            n = quad.sum()
            grads = np.array([
                2 * (c_pm + c_mp) / n**2,
                2 * (c_pm + c_mp) / n**2,
                -2 * (c_pp + c_mm) / n**2,
                -2 * (c_pp + c_mm) / n**2,
            ])
            var = float(np.sum(grads**2 * quad))
            assert result.correlation_errors[0] == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_bootstrap_agrees_with_propagation(self):
        counts = [(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)]
        prop = L.estimate_chsh(counts)
        boot = L.estimate_chsh(counts, error_method="bootstrap", n_boot=4000, boot_seed=1)
        assert boot.s_value == prop.s_value
        assert boot.s_error == pytest.approx(prop.s_error, rel=0.15)

    @pytest.mark.parametrize("counts, n_boot, boot_seed", [
        ([(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)], 500, 0),
        ([(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)], 64, 7),
        ([(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 1)], 500, 3),
    ])
    def test_bootstrap_matches_resample_loop(self, counts, n_boot, boot_seed):
        e_errs, s_err, empty = bootstrap_loop(counts, n_boot, boot_seed)
        result = L.estimate_chsh(counts, error_method="bootstrap", n_boot=n_boot,
                                 boot_seed=boot_seed)
        assert result.correlation_errors == e_errs
        assert result.s_error == s_err
        if min(sum(q) for q in counts) <= 2:
            assert empty > 0  # resamples with no coincidence at a setting did occur

    @pytest.mark.parametrize("n_boot", [0, 1])
    def test_bootstrap_needs_two_resamples(self, n_boot):
        counts = [(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)]
        with pytest.raises(ValueError, match="n_boot"):
            L.estimate_chsh(counts, error_method="bootstrap", n_boot=n_boot)

    def test_zero_total_raises(self):
        with pytest.raises(L.EstimationError):
            L.estimate_chsh([(0, 0, 0, 0)] * 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_count_raises(self, bad):
        with pytest.raises(L.EstimationError, match="finite and non-negative"):
            L.estimate_chsh([(220, 210, 40, 35)] * 3 + [(210, 200, 35, bad)])

    def test_huge_counts_do_not_overflow(self):
        # sigma_E scales as 1/sqrt(N); N^3 would overflow at N = 6e300
        quad = (3.0, 1.0, 1.0, 1.0)
        small = L.estimate_chsh([quad] * 4)
        huge = L.estimate_chsh([tuple(1e300 * c for c in quad)] * 4)
        assert huge.correlations == small.correlations
        assert huge.s_error == pytest.approx(small.s_error / 1e150, rel=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(L.EstimationError):
            L.estimate_chsh([(1, 1, 1, 1)] * 3)


class TestMonteCarloConsistency:
    def test_converges_to_analytic(self):
        src = L.SourceModel(0.9, 1e6)
        ch = L.ChannelModel(30.0)
        s_true = chsh_analytic(make_source(0.9))
        gaps = []
        for t_int in (2.0, 200.0):
            det = L.DetectionModel(efficiency=0.5, dark_rate_hz=0.0,
                                   coincidence_window_s=1e-15, integration_time_s=t_int)
            s_vals = []
            for seed in range(30):
                r = L.estimate_chsh(L.simulate_chsh_counts(src, ch, det, seed=seed))
                s_vals.append(r.s_value)
            gaps.append(abs(np.mean(s_vals) - s_true))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.01

    def test_zscores_standard_normal(self):
        src = L.SourceModel(0.9329, 1e6)
        ch, det = L.calibrate_bell(src, L.ChannelModel(46.0), L.DetectionModel(),
                                   s_target=2.312, total_target=2138.0)
        z = []
        for seed in range(200):
            r = L.estimate_chsh(L.simulate_chsh_counts(src, ch, det, seed=seed))
            z.append((r.s_value - 2.312) / r.s_error)
        assert stats.kstest(np.array(z), "norm").pvalue > 0.01

    def test_sigma_propagation_matches_spread(self):
        for v in (1.0, 0.9, 0.7):
            src = L.SourceModel((3.0 * v + 1.0) / 4.0, 1e6)
            ch = L.ChannelModel(46.0)
            det = L.DetectionModel(dark_rate_hz=0.0, integration_time_s=85.0)
            s_vals, sig_vals = [], []
            for seed in range(200):
                r = L.estimate_chsh(L.simulate_chsh_counts(src, ch, det, seed=seed))
                s_vals.append(r.s_value)
                sig_vals.append(r.s_error)
            empirical = np.std(s_vals, ddof=1)
            assert abs(np.mean(sig_vals) - empirical) / empirical < 0.20


class TestCalibration:
    def test_hits_targets(self):
        src = L.SourceModel(0.9329, 1e6)
        ch, det = L.calibrate_bell(src, L.ChannelModel(46.0), L.DetectionModel(),
                                   s_target=2.312, total_target=2138.0)
        s, total = L.expected_chsh(src, ch, det)
        assert s == pytest.approx(2.312, abs=1e-9)
        assert total == pytest.approx(2138.0, rel=1e-9)

    def test_matches_root_search(self):
        # a root search on the full count model lands on the closed-form depolarization
        src = L.SourceModel(0.9329, 1e6)
        ch = L.ChannelModel(46.0, rotation=J.rotator(0.1))
        det = L.DetectionModel()
        calibrated, _ = L.calibrate_bell(src, ch, det, s_target=2.312, total_target=2138.0)

        def s_gap(p):
            return L.expected_chsh(src, L.ChannelModel(46.0, ch.rotation, p), det)[0] - 2.312

        root = optimize.brentq(s_gap, 0.0, 1.0, xtol=1e-14)
        assert calibrated.depolarization == pytest.approx(root, rel=1e-12)

    def test_s_linear_in_depolarization(self, rng):
        for _ in range(50):
            src = L.SourceModel(rng.uniform(0.25, 1.0), 1e6)
            det = L.DetectionModel(efficiency=rng.uniform(0.1, 1.0),
                                   dark_rate_hz=rng.uniform(0.0, 1e4),
                                   integration_time_s=rng.uniform(1.0, 100.0))
            rotation = J.rotator(rng.uniform(-0.3, 0.3))
            loss, p = rng.uniform(20.0, 50.0), rng.uniform(0.0, 1.0)
            s0, _ = L.expected_chsh(src, L.ChannelModel(loss, rotation), det)
            s_p, _ = L.expected_chsh(src, L.ChannelModel(loss, rotation, p), det)
            assert s_p == pytest.approx((1.0 - p) * s0, rel=1e-12, abs=1e-15)

    def test_unreachable_target(self):
        src = L.SourceModel(0.9329, 1e6)
        with pytest.raises(ValueError):
            L.calibrate_bell(src, L.ChannelModel(46.0), L.DetectionModel(),
                             s_target=2.7, total_target=2138.0)

    def test_start_time_cancels(self):
        src = L.SourceModel(0.9329, 1e6)
        want = L.calibrate_bell(src, L.ChannelModel(46.0), L.DetectionModel(), 2.312, 2138.0)
        for t in (1e-300, 1e300):
            got = L.calibrate_bell(src, L.ChannelModel(46.0),
                                   L.DetectionModel(integration_time_s=t), 2.312, 2138.0)
            assert got == want

    def test_subnormal_counts_miss_targets(self):
        # subnormal expected counts carry too few digits to reach the targets
        src = L.SourceModel(0.9329, 1e6)
        with pytest.raises(ValueError, match="calibrated model gives"):
            L.calibrate_bell(src, L.ChannelModel(46.0),
                             L.DetectionModel(integration_time_s=1e-320), 2.312, 2138.0)

    @pytest.mark.parametrize("det", [L.DetectionModel(integration_time_s=1e308),
                                     L.DetectionModel(dark_rate_hz=1e200)])
    def test_overflowing_counts_raise(self, det):
        with pytest.raises(ValueError, match="overflow"):
            L.expected_chsh(L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0), det)


class TestCountsCsv:
    def test_roundtrip(self):
        src = L.SourceModel(0.9329, 1e6)
        counts = L.simulate_chsh_counts(src, L.ChannelModel(46.0),
                                        L.DetectionModel(integration_time_s=50.0), seed=9)
        rows = read_table(L.counts_to_csv(counts), L.COUNTS_FORMAT)
        assert tuple(row[:2] for row in rows) == L.BELL_TEST_SETTINGS
        assert [tuple(int(c) for c in row[2:]) for row in rows] == [tuple(q) for q in counts]


class TestOffsetScan:
    def test_ideal_origin(self):
        grid = L.offset_scan([0.0], [0.0], J.IDEAL_MIRROR)
        assert grid[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_hwp_doubling_oracle(self):
        grid = L.offset_scan([5.0], [0.0], J.IDEAL_MIRROR)
        assert grid[0, 0] == pytest.approx(math.cos(math.radians(10.0)) ** 2, abs=1e-9)

    def test_composition_formula(self, rng):
        # single-rotation oracle: fidelity = cos^2(2g + s) for ideal optics
        ground = list(rng.uniform(-5.0, 5.0, size=4))
        sat = list(rng.uniform(-2.0, 2.0, size=3))
        grid = L.offset_scan(ground, sat, J.IDEAL_MIRROR)
        for i, g in enumerate(ground):
            for j, s in enumerate(sat):
                want = math.cos(math.radians(2.0 * g + s)) ** 2
                assert grid[i, j] == pytest.approx(want, abs=1e-9)

    def test_flight_grid(self):
        ground = [float(g) for g in range(-5, 6)]
        sat = [0.0, -1.0]
        grid = L.offset_scan(ground, sat, A.HR_COATING)
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        assert (ground[i], sat[j]) in ((0.0, 0.0), (0.0, -1.0))
        assert grid[i, j] >= 0.995
        assert grid.shape == (11, 2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            L.offset_scan([], [0.0], J.IDEAL_MIRROR)

    def test_csv_roundtrip(self):
        ground = [-1.0, 0.0, 1.0]
        sat = [0.0, -1.0]
        grid = L.offset_scan(ground, sat, A.HR_COATING)
        rows = read_table(L.offset_scan_csv(ground, sat, grid), L.OFFSET_SCAN_FORMAT)
        assert len(rows) == 6
        assert rows[0] == (-1.0, 0.0, grid[0, 0])
