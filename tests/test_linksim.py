import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from polsim import antenna as A
from polsim import jones as J
from polsim import linksim as L
from polsim.table import read_table
from conftest import haar_unitary, random_pure_qubit
from reference import (TwoQubitState, chsh_analytic, correlation, density_matrix_counts,
                       fresh_philox_counts, frozen_expected_counts, make_source)

SQRT8 = 2.0 * math.sqrt(2.0)
ANGLES = st.floats(-math.pi, math.pi)
ROTATIONS = st.one_of(
    st.just(J.IDENTITY),
    ANGLES.map(J.rotator),
    st.integers(0, 2**32 - 1).map(
        lambda seed: J.OpticalElement(*haar_unitary(np.random.default_rng(seed)).ravel())),
)
# (source, channel, detector) over the model's whole parameter range
MODELS = st.tuples(
    st.builds(L.SourceModel, st.floats(0.25, 1.0), st.floats(1.0, 1e9)),
    st.builds(lambda loss, wp_angle, retardance, rot, depol: L.ChannelModel(
        loss, J.waveplate(wp_angle, retardance) @ J.rotator(rot), depol),
        st.floats(0.0, 80.0), ANGLES, st.floats(0.0, 2.0 * math.pi), ANGLES, st.floats(0.0, 1.0)),
    st.builds(L.DetectionModel, st.floats(1e-3, 1.0), st.floats(0.0, 1e5), st.floats(1e-12, 1e-6),
              st.floats(1e-3, 1e3)),
)


def bootstrap_loop(counts, n_boot, boot_seed):
    """Reference bootstrap: one Poisson resample of each setting's same-port
    and cross-port sums (c_pp + c_mm, c_pm + c_mp) per pass.
    Returns (sigma_E, sigma_S, number of per-setting resamples with n = 0)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([boot_seed, 2**32], dtype=np.uint64)))
    pooled = [(float(pp) + float(mm), float(pm) + float(mp)) for pp, mm, pm, mp in counts]
    e_samples = np.empty((n_boot, 4))
    empty = 0
    for b in range(n_boot):
        resampled = rng.poisson(pooled)
        for k in range(4):
            same, cross = resampled[k]
            n = same + cross
            empty += n == 0
            e_samples[b, k] = (same - cross) / n if n > 0 else 0.0
    s_boot = np.abs(e_samples[:, 0] - e_samples[:, 1] + e_samples[:, 2] + e_samples[:, 3])
    return (tuple(float(x) for x in np.std(e_samples, axis=0, ddof=1)),
            float(np.std(s_boot, ddof=1)), empty)


def four_port_bootstrap(counts, n_boot, rng):
    """Reference bootstrap that resamples every port's count as Poisson(C).
    Returns (sigma_E, sigma_S)."""
    resampled = rng.poisson(np.asarray(counts, dtype=float), size=(n_boot, 4, 4))
    same = resampled[..., 0] + resampled[..., 1]
    cross = resampled[..., 2] + resampled[..., 3]
    e_samples = (same - cross) / np.maximum(same + cross, 1)
    s_boot = np.abs(e_samples[:, 0] - e_samples[:, 1] + e_samples[:, 2] + e_samples[:, 3])
    return np.std(e_samples, axis=0, ddof=1), float(np.std(s_boot, ddof=1))


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
        # turning the uplink photon by -pi/8 aligns setting 0's analyzers (0, pi/8)
        ch = L.ChannelModel(0.0, rotation=J.rotator(-math.pi / 8))
        # negligible window so the singles-accidental floor stays at zero
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-15, integration_time_s=1.0)
        c_pp, c_mm, c_pm, c_mp = L.simulate_chsh_counts(src, ch, det, seed=3)[0]
        total = c_pp + c_mm
        assert abs(total - 1e6) < 5.0 * math.sqrt(1e6)
        assert c_pm + c_mp <= 5  # 5-sigma of a ~zero-mean Poisson

    def test_loss_scaling(self):
        # expectation bookkeeping oracle at 46 dB
        src = L.SourceModel(1.0, 1e6)
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-15, integration_time_s=100.0)
        counts = L.simulate_chsh_counts(src, L.ChannelModel(46.0), det, seed=4)[0]
        expected = 1e6 * 10.0 ** (-4.6) * 100.0
        assert abs(sum(counts) - expected) < 5.0 * math.sqrt(expected)

    def test_loss_linearity_in_db(self):
        # doubling dB loss divides expected counts by the right power of ten
        src = L.SourceModel(1.0, 1e8)
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-15, integration_time_s=100.0)
        n20 = sum(L.simulate_chsh_counts(src, L.ChannelModel(20.0), det, seed=5)[0])
        n40 = sum(L.simulate_chsh_counts(src, L.ChannelModel(40.0), det, seed=6)[0])
        expected40 = 1e8 * 1e-4 * 100.0
        assert abs(n40 - expected40) < 5.0 * math.sqrt(expected40)
        assert abs(n20 - expected40 * 100.0) < 5.0 * math.sqrt(expected40 * 100.0)

    def test_dark_count_accidentals(self):
        # Poisson product oracle: accidental mean = dark^2 * window * time
        src = L.SourceModel(1.0, 1e-9)  # effectively source-off
        ch = L.ChannelModel(0.0)
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=1000.0,
                               coincidence_window_s=1e-6, integration_time_s=100.0)
        counts = L.simulate_chsh_counts(src, ch, det, seed=7)[0]
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
        # rotating photon 1 by r gives E = cos 2(phi2 + r - phi1) on the settings
        # (0, pi/8), (0, 3pi/8), (pi/4, pi/8), (pi/4, 3pi/8): r = -pi/8 moves the
        # perfect correlation onto the first and last, r = +pi/8 onto the middle two
        src = L.SourceModel(1.0, 1e6)
        # a window this short leaves the accidentals below 1e-12 of the true counts
        det = L.DetectionModel(efficiency=1.0, dark_rate_hz=0.0,
                               coincidence_window_s=1e-24, integration_time_s=1.0)
        for turn, want in ((-math.pi / 8, (1.0, 0.0, 0.0, 1.0)),
                           (math.pi / 8, (0.0, -1.0, 1.0, 0.0))):
            means = L._count_means(src, L.ChannelModel(0.0, J.rotator(turn)), det)
            e = [L._correlation_from_counts(row)[0] for row in means]
            assert e == pytest.approx(want, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(MODELS)
    def test_closed_form_matches_density_matrix(self, models):
        got = np.array(L._count_means(*models))
        assert got.shape == (4, 4)
        for row, (phi1, phi2) in zip(got, L.BELL_TEST_SETTINGS):
            want = density_matrix_counts(*models, phi1, phi2)
            # a port pair with zero probability carries only the reference's rounding
            # noise, so the absolute floor is relative to the setting's largest mean
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12 * want.max())

    @settings(max_examples=100, deadline=None)
    @given(MODELS, st.sampled_from([0, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    def test_streams_match_fresh_philox_per_setting(self, models, seed):
        # one re-keyed generator and scalar draws give what a fresh
        # Philox(key=[seed, k]) gives on setting k's own means
        got = L.simulate_chsh_counts(*models, seed=seed)
        assert got == fresh_philox_counts(*models, L.BELL_TEST_SETTINGS, seed)
        assert all(type(c) is int for quad in got for c in quad)

    @settings(max_examples=100, deadline=None)
    @given(MODELS, ROTATIONS, ROTATIONS)
    def test_means_match_frozen_expression(self, models, rot_a, rot_b):
        src, ch, det = models
        # A, B, A: a stale or mis-keyed factor from the cache hands B's to A
        a, b = replace(ch, rotation=rot_a), replace(ch, rotation=rot_b)
        for channel in (a, b, a):
            got = np.array(L._count_means(src, channel, det))
            assert np.array_equal(got, frozen_expected_counts(src, channel, det,
                                                              L.BELL_TEST_SETTINGS))

    def test_interleaved_points_keep_their_means(self):
        src, det = L.SourceModel(0.9329, 1e6), L.DetectionModel()
        points = [L.ChannelModel(46.0), L.ChannelModel(44.0, J.rotator(0.3)),
                  L.ChannelModel(46.0, J.rotator(0.3)), L.ChannelModel(44.0)]
        for channel in points + points[::-1] + points:
            got = np.array(L._count_means(src, channel, det))
            assert np.array_equal(got, frozen_expected_counts(src, channel, det,
                                                              L.BELL_TEST_SETTINGS))

    def test_count_means_cached_per_model(self):
        src, det = L.SourceModel(0.9329, 1e6), L.DetectionModel()
        a, b = L.ChannelModel(46.0), L.ChannelModel(44.0, J.rotator(0.3))
        L._count_means.cache_clear()
        # A, B, A: a stale or mis-keyed entry hands B's means to A
        got = [L._count_means(src, channel, det) for channel in (a, b, a)]
        for means, channel in zip(got, (a, b, a)):
            want = frozen_expected_counts(src, channel, det, L.BELL_TEST_SETTINGS)
            assert means == tuple(map(tuple, want.tolist()))
            assert all(type(m) is float for row in means for m in row)
        assert got[0] is got[2]
        # equal but distinct model objects share one entry
        again = L._count_means(L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0),
                               L.DetectionModel())
        assert again is got[0]
        assert L._count_means.cache_info()[:2] == (2, 2)  # (hits, misses)
        with pytest.raises(TypeError):
            again[0] = (0.0,) * 4
        with pytest.raises(TypeError):
            again[0][0] = 0.0

    def test_calibration_and_seeds_share_count_means(self):
        model = (L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0), L.DetectionModel())
        L._count_means.cache_clear()
        L.expected_chsh(*model)
        for seed in range(2):
            L.simulate_chsh_counts(*model, seed=seed)
        assert L._count_means.cache_info()[:2] == (2, 1)  # (hits, misses)
        # a model holding a 0-d array holds its float, so it shares the entry
        arrays = (L.SourceModel(np.array(0.9329), 1e6), *model[1:])
        assert L.expected_chsh(*arrays) == L.expected_chsh(*model)

    def test_model_of_a_0d_array_is_its_float_twin(self):
        twin, model = L.SourceModel(0.9329, 1e6), L.SourceModel(np.array(0.9329), 1e6)
        assert type(model.fidelity) is float
        assert model == twin and hash(model) == hash(twin)
        channel, det = L.ChannelModel(46.0), L.DetectionModel()
        L._count_means.cache_clear()
        assert L._count_means(model, channel, det) is L._count_means(twin, channel, det)
        assert L._count_means.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_default_rotation_is_the_identity(self):
        assert L.ChannelModel(46.0).rotation is J.IDENTITY

    def test_mean_over_sampler_limit_raises_every_call(self):
        # 6.7e300 expected coincidences: finite, but far above the sampler's limit
        model = (L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0),
                 L.DetectionModel(integration_time_s=1e300))
        L._count_means.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds the Poisson sampler's limit") as err:
                L.simulate_chsh_counts(*model, seed=0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert L._count_means.cache_info()[:2] == (1, 1)  # the second call is a hit

    def test_model_of_0d_arrays_keeps_its_counts(self):
        # such a model holds the floats of its arrays, as its float twin does
        model = (L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0), L.DetectionModel())
        arrays = (L.SourceModel(np.array(0.9329), np.array(1e6)), L.ChannelModel(np.array(46.0)),
                  L.DetectionModel(efficiency=np.array(0.5)))
        assert L.simulate_chsh_counts(*arrays, seed=4) == fresh_philox_counts(
            *model, L.BELL_TEST_SETTINGS, 4)

    @pytest.mark.parametrize("seed, key", [(3.0, 3), (np.uint64(3), 3), (True, 1)])
    def test_seed_types_accepted_keep_their_counts(self, seed, key):
        model = (L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0), L.DetectionModel())
        got = L.simulate_chsh_counts(*model, seed=seed)
        assert got == fresh_philox_counts(*model, L.BELL_TEST_SETTINGS, key)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        model = (L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0), L.DetectionModel())
        with pytest.raises(ValueError, match=re.escape("[0, 2**64)")) as err:
            L.simulate_chsh_counts(*model, seed=seed)
        assert str(err.value) == f"seed must be an integer in [0, 2**64), got {seed!r}"

    def test_poisson_mean_max_is_the_samplers_limit(self):
        # the largest mean numpy's Poisson sampler draws from, to the last bit
        rng = np.random.default_rng(0)
        assert rng.poisson(L.POISSON_MEAN_MAX) >= 0
        with pytest.raises(ValueError, match="^lam value too large$"):
            rng.poisson(np.nextafter(L.POISSON_MEAN_MAX, np.inf))

    @pytest.mark.parametrize("element", [
        J.OpticalElement(1.0, 1.0, 0.0, 0.0),  # Frobenius norm^2 = 2, like a unitary
        J.polarizer(0.3),
        J.mirror_element(J.MirrorResponse.from_powers(0.99, 0.98, math.pi)),
        # not one matrix: a batch of 4 would rotate each setting its own way
        J.rotator(np.array([0.1, 0.2])),
        J.rotator(np.array([0.0, 0.1, 0.2, 0.3])),
        J.OpticalElement(np.array(1.0), 0.0, 0.0, 1.0),
    ])
    def test_non_unitary_rotation_rejected(self, element):
        with pytest.raises(ValueError, match="^channel rotation must be one unitary Jones matrix"):
            L.ChannelModel(0.0, rotation=element)

    @pytest.mark.parametrize("build", [
        lambda: L.ChannelModel(math.inf),
        lambda: L.ChannelModel(math.nan),
        lambda: L.SourceModel(0.9, math.inf),
        lambda: L.DetectionModel(dark_rate_hz=math.nan),
        lambda: L.DetectionModel(integration_time_s=math.inf),
        lambda: L.DetectionModel(dark_rate_hz=math.inf),
    ])
    def test_non_finite_model_values_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: L.SourceModel("0.9", 1e6),
        lambda: L.ChannelModel("46"),
        lambda: L.DetectionModel(dark_rate_hz="100"),
    ])
    def test_text_is_not_a_model_number(self, build):
        # float() would read it; the range checks, which run first, do not
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: L.SourceModel(0.9329, 0.0), "pair rate must be finite and positive"),
        (lambda: L.DetectionModel(efficiency=0.0), "efficiency must be in (0, 1]"),
        (lambda: L.DetectionModel(integration_time_s=0.0),
         "integration time must be finite and positive"),
    ])
    def test_zero_rate_efficiency_or_time_rejected(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("window", [0.0, math.inf])
    def test_coincidence_window_bounds_excluded(self, window):
        with pytest.raises(ValueError, match="^coincidence window must be finite and positive$"):
            L.DetectionModel(coincidence_window_s=window)


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

    def test_sigma_s_at_the_paper_point(self):
        # the calibrated default link (S 2.312, 2,138 coincidences); the paper
        # reports 0.096, which the model does not reproduce (see README)
        src = L.SourceModel(0.9329, 1e6)
        channel, det = L.calibrate_bell(src, L.ChannelModel(46.0), L.DetectionModel(),
                                        s_target=2.312, total_target=2138.0)
        means = L._count_means(src, channel, det)
        sigma = L.estimate_chsh(means).s_error
        assert sigma == pytest.approx(0.0706, abs=1e-4)
        # closed form sigma_S^2 = sum_k (1 - E_k^2) / N_k
        e = [(pp + mm - pm - mp) / (pp + mm + pm + mp) for pp, mm, pm, mp in means]
        n = [sum(quad) for quad in means]
        assert e == pytest.approx([0.578, -0.578, 0.578, 0.578], abs=1e-12)
        assert n == pytest.approx([534.5] * 4, rel=1e-12)
        closed = math.sqrt(sum((1.0 - ek**2) / nk for ek, nk in zip(e, n)))
        assert sigma == pytest.approx(closed, abs=1e-12)

    def test_bootstrap_agrees_with_propagation(self):
        counts = [(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)]
        prop = L.estimate_chsh(counts)
        boot = L.estimate_chsh(counts, error_method="bootstrap")
        assert boot.s_value == prop.s_value
        assert boot.s_error == pytest.approx(prop.s_error, rel=0.15)

    @pytest.mark.parametrize("counts", [
        [(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 1)],
    ])
    def test_bootstrap_matches_resample_loop(self, counts):
        e_errs, s_err, empty = bootstrap_loop(counts, 500, 0)
        result = L.estimate_chsh(counts, error_method="bootstrap")
        assert result.correlation_errors == e_errs
        assert result.s_error == s_err
        if min(sum(q) for q in counts) <= 2:
            assert empty > 0  # resamples with no coincidence at a setting did occur

    @pytest.mark.parametrize("counts", [
        [(220, 210, 40, 35), (30, 45, 200, 215), (205, 220, 45, 30), (210, 200, 35, 45)],
        [(900, 5, 3, 60), (2, 40, 700, 1), (500, 0, 0, 80), (1, 1, 30, 400)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 1)],
    ])
    def test_bootstrap_spread_matches_four_port_resampling(self, counts):
        # resampling the two sums draws E from the same distribution as
        # resampling all four ports; 500 resamples estimate a sigma to ~3 %
        e_ref, s_ref = four_port_bootstrap(counts, 5000, np.random.default_rng(11))
        result = L.estimate_chsh(counts, error_method="bootstrap")
        assert result.correlation_errors == pytest.approx(tuple(e_ref), rel=0.1)
        assert result.s_error == pytest.approx(s_ref, rel=0.1)

    def test_bootstrap_sums_do_not_wrap(self):
        # int64 sums of draws near 6e18 wrapped to sigma_S ~ 8e9; numpy's
        # sampler spreads about 25 % wide at means above 1e17, hence rel=0.5
        counts = [(6e18, 3e18, 2e18, 1.5e18)] * 4
        boot = L.estimate_chsh(counts, error_method="bootstrap")
        assert boot.s_error == pytest.approx(L.estimate_chsh(counts).s_error, rel=0.5)

    @pytest.mark.parametrize("quad, peak", [((4.7e18, 4.7e18, 1.0, 1.0), "9.4e+18"),
                                            ((1e300, 1.0, 1.0, 1.0), "1e+300")])
    def test_bootstrap_refuses_a_sum_above_the_samplers_limit(self, quad, peak):
        counts = [(220, 210, 40, 35)] * 3 + [quad]
        assert L.estimate_chsh(counts).s_value >= 0.0  # propagation takes them
        with pytest.raises(ValueError) as err:
            L.estimate_chsh(counts, error_method="bootstrap")
        assert str(err.value) == (f"coincidence sum {peak} exceeds the Poisson sampler's "
                                  f"limit {L.POISSON_MEAN_MAX:.6g}")

    def test_bootstrap_takes_a_sum_at_the_samplers_limit(self):
        counts = [(220, 210, 40, 35)] * 3 + [(L.POISSON_MEAN_MAX, 0.0, 1.0, 0.0)]
        assert L.estimate_chsh(counts, error_method="bootstrap").s_error > 0.0

    def test_zero_total_raises(self):
        with pytest.raises(ValueError, match="^zero total coincidences at a setting$"):
            L.estimate_chsh([(0, 0, 0, 0)] * 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_count_raises(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            L.estimate_chsh([(220, 210, 40, 35)] * 3 + [(210, 200, 35, bad)])

    def test_huge_counts_do_not_overflow(self):
        # sigma_E scales as 1/sqrt(N); N^3 would overflow at N = 6e300
        quad = (3.0, 1.0, 1.0, 1.0)
        small = L.estimate_chsh([quad] * 4)
        huge = L.estimate_chsh([tuple(1e300 * c for c in quad)] * 4)
        assert huge.correlations == small.correlations
        assert huge.s_error == pytest.approx(small.s_error / 1e150, rel=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="^need counts for exactly four settings$"):
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

    @pytest.mark.parametrize("s_target, total, message", [
        (-1.0, 2138.0, "S target must be non-negative, got -1.0"),
        (2.312, 0.0, "expected a positive number below 9.22337e+18, got 0.0"),
        (2.312, 1e300, "expected a positive number below 9.22337e+18, got 1e+300"),
        (2.312, L.POISSON_MEAN_MAX, "expected a positive number below 9.22337e+18, "
                                    "got 9.223372006484771e+18"),
    ])
    def test_targets_checked_first(self, s_target, total, message):
        # a negative S would otherwise ask for a depolarization above 1
        assert L.check_targets(0.0, 2138.0) is None
        with pytest.raises(ValueError) as err:
            L.calibrate_bell(L.SourceModel(0.9329, 1e6), L.ChannelModel(46.0),
                             L.DetectionModel(), s_target, total)
        assert str(err.value) == message

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

    def test_maximally_mixed_source_calibrates_to_zero(self):
        # S(0) = 0 exactly, so no depolarization is needed and S = 0 is hit exactly
        src = L.SourceModel(0.25, 1e6)
        channel, det = L.calibrate_bell(src, L.ChannelModel(46.0), L.DetectionModel(), 0.0, 2138.0)
        assert channel.depolarization == 0.0
        s, total = L.expected_chsh(src, channel, det)
        assert s == 0.0
        assert total == pytest.approx(2138.0, rel=1e-12)

    def test_tolerance_relative_to_each_target(self):
        src = L.SourceModel(0.9329, 1e6)
        # this start time leaves the total 2.3e-10 off 1e6, within 1e-9 x 1e6
        channel, det = L.calibrate_bell(src, L.ChannelModel(46.0),
                                        L.DetectionModel(integration_time_s=1e-5), 2.312, 1e6)
        assert L.expected_chsh(src, channel, det)[1] == pytest.approx(1e6, rel=1e-9, abs=0.0)
        # this subnormal start time leaves S 1.2e-9 off 0.1, beyond 1e-9 x 0.1
        # (the total lands 7e-11 relative off, within its bound)
        with pytest.raises(ValueError, match="calibrated model gives S 0.100000001 and"):
            L.calibrate_bell(src, L.ChannelModel(46.0),
                             L.DetectionModel(integration_time_s=1.2757763e-317), 0.1, 2138.0)

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
