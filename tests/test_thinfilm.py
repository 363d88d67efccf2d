import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim import thinfilm as tf
from polsim.jones import MirrorResponse
from polsim.table import ParseError
from reference import (Interface, brewster_angle, format_stack, fresnel, fresnel_transmission,
                       snell)


def random_stack(rng, max_layers=60):
    n_layers = int(rng.integers(1, max_layers + 1))
    layers = tuple((rng.uniform(1.3, 2.3), rng.uniform(10.0, 400.0)) for _ in range(n_layers))
    return tf.LayerStack(1.0, layers, rng.uniform(1.3, 2.3))


def two_pair_stack():
    """The first two high/low pairs of the packaged quarter-wave design."""
    qw = tf.quarter_wave_stack()
    return tf.LayerStack(qw.ambient, qw.layers[:4], qw.substrate)


class TestSnell:
    def test_normal_incidence(self):
        assert snell(Interface(1.0, 1.5), 0.0) == pytest.approx(0.0)

    def test_thirty_degrees(self):
        theta_t = snell(Interface(1.0, 1.5), math.radians(30.0))
        assert theta_t.imag == pytest.approx(0.0, abs=1e-15)
        assert theta_t.real == pytest.approx(math.asin(1.0 / 3.0), abs=1e-12)

    def test_total_internal_reflection(self):
        theta_t = snell(Interface(1.5, 1.0), math.radians(60.0))
        assert abs(theta_t.imag) > 0.0
        assert abs(cmath.sin(theta_t)) > 1.0

    def test_invariant(self, rng):
        for _ in range(200):
            n0 = rng.uniform(1.0, 2.5)
            n = rng.uniform(1.0, 2.5)
            theta_i = rng.uniform(0.0, math.radians(89.0))
            theta_t = snell(Interface(n0, n), theta_i)
            assert abs(n0 * math.sin(theta_i) - n * cmath.sin(theta_t)) < 1e-12


class TestFresnel:
    def test_normal_incidence_signs(self):
        r = fresnel(Interface(1.0, 1.5), 0.0)
        assert r.r_s == pytest.approx(-0.2, abs=1e-15)
        assert r.r_p == pytest.approx(+0.2, abs=1e-15)

    def test_brewster_example(self):
        r = fresnel(Interface(1.0, 1.5), math.atan(1.5))
        assert abs(r.r_p) < 1e-12

    def test_brewster_sweep(self, rng):
        for _ in range(100):
            n0 = rng.uniform(1.0, 2.0)
            n = rng.uniform(n0 + 0.05, 3.0)
            r = fresnel(Interface(n0, n), brewster_angle(n0, n))
            assert abs(r.r_p) < 1e-10

    def test_grazing_incidence(self):
        r = fresnel(Interface(1.0, 1.5), math.radians(89.9))
        assert abs(r.r_s) > 0.99
        assert abs(r.r_p) > 0.99

    def test_normal_incidence_magnitude_degeneracy(self, rng):
        for _ in range(100):
            n0 = rng.uniform(1.0, 2.5)
            n = rng.uniform(1.0, 2.5)
            r = fresnel(Interface(n0, n), 0.0)
            assert abs(abs(r.r_s) - abs(r.r_p)) < 1e-12
            assert abs(r.r_s) == pytest.approx(abs(n - n0) / (n + n0), abs=1e-12)

    def test_energy_conservation(self, rng):
        for _ in range(200):
            n0 = rng.uniform(1.0, 2.5)
            n = rng.uniform(1.0, 2.5)
            theta = rng.uniform(0.0, math.radians(89.0))
            iface = Interface(n0, n)
            r = fresnel(iface, theta)
            ts, tp = fresnel_transmission(iface, theta)
            cos_t = tf._cos_refracted(n0, n, theta)
            factor = (n * cos_t).real / (n0 * math.cos(theta))
            assert abs(r.r_s) ** 2 + factor * abs(ts) ** 2 == pytest.approx(1.0, abs=1e-10)
            assert abs(r.r_p) ** 2 + factor * abs(tp) ** 2 == pytest.approx(1.0, abs=1e-10)


class TestStackResponse:
    def test_empty_stack_reduces_to_fresnel(self):
        stack = tf.LayerStack(1.0, (), 1.5)
        for theta in (0.0, 0.4, 1.1):
            ray = tf.Ray(theta, 780.0)
            got = tf.stack_response(stack, ray)
            want = fresnel(Interface(1.0, 1.5), theta)
            assert abs(got.r_s - want.r_s) < 1e-12
            assert abs(got.r_p - want.r_p) < 1e-12
        assert tf.stack_response(stack, tf.Ray(0.0, 780.0)).r_s == pytest.approx(-0.2)

    def test_quarter_wave_layer_formula(self):
        # closed-form quarter-wave reflectance ((n0 ns - n1^2)/(n0 ns + n1^2))^2
        n1, ns = 1.38, 1.5
        stack = tf.LayerStack(1.0, ((n1, 780.0 / (4.0 * n1)),), ns)
        got = tf.stack_response(stack, tf.Ray(0.0, 780.0))
        want = ((1.0 * ns - n1**2) / (1.0 * ns + n1**2)) ** 2
        assert abs(got.r_s) ** 2 == pytest.approx(want, abs=1e-12)
        oracle = tf.stack_response_oracle(stack, tf.Ray(0.0, 780.0))
        assert abs(got.r_s - oracle.r_s) < 1e-10
        assert abs(got.r_p - oracle.r_p) < 1e-10

    def test_reference_hr_stack_targets(self):
        stack = tf.quarter_wave_stack()
        assert len(stack.layers) == 50
        r = tf.stack_response(stack, tf.Ray(math.radians(45.0), 780.0))
        assert abs(r.r_s) ** 2 > 0.999
        assert abs(r.r_s) ** 2 >= abs(r.r_p) ** 2
        assert abs(abs(r.phase_gap) - math.pi) < 0.05 * math.pi

    def test_cross_validation_sweep(self, rng):
        worst = 0.0
        for _ in range(1000):
            stack = random_stack(rng)
            ray = tf.Ray(rng.uniform(0.0, math.radians(80.0)), rng.uniform(400.0, 1600.0))
            a = tf.stack_response(stack, ray)
            b = tf.stack_response_oracle(stack, ray)
            worst = max(worst, abs(a.r_s - b.r_s), abs(a.r_p - b.r_p))
        assert worst < 1e-10

    def test_oracle_empty_stack_equals_fresnel(self):
        stack = tf.LayerStack(1.0, (), 1.52)
        for theta in (0.0, 0.7):
            got = tf.stack_response_oracle(stack, tf.Ray(theta, 780.0))
            want = fresnel(Interface(1.0, 1.52), theta)
            assert abs(got.r_s - want.r_s) < 1e-15
            assert abs(got.r_p - want.r_p) < 1e-15

    @pytest.mark.parametrize("index", [2.1 + 1000j, 2.1 + 1e308j])
    def test_thick_absorbing_layer_matches_oracle(self, index):
        stack = tf.LayerStack(1.0, ((index, 100.0),), 1.5)
        ray = tf.Ray(math.radians(45.0), 780.0)
        got, want = tf.stack_response(stack, ray), tf.stack_response_oracle(stack, ray)
        assert abs(got.r_s - want.r_s) < 1e-10
        assert abs(got.r_p - want.r_p) < 1e-10

    def test_monotone_growth_with_pairs(self):
        # quarter waves at normal incidence: thickness lambda / (4 n)
        pair = tuple((n, 780.0 / (4.0 * n)) for n in (2.10, 1.45))
        prev = 0.0
        for pairs in range(1, 26):
            stack = tf.LayerStack(1.0, pair * pairs, 1.52)
            r = tf.stack_response(stack, tf.Ray(0.0, 780.0))
            power = abs(r.r_s) ** 2
            assert power >= prev - 1e-12
            prev = power

    def test_passive_bound(self, rng):
        for _ in range(100):
            stack = random_stack(rng, max_layers=20)
            ray = tf.Ray(rng.uniform(0.0, 1.3), 780.0)
            r = tf.stack_response(stack, ray)
            assert abs(r.r_s) <= 1.0 + 1e-12
            assert abs(r.r_p) <= 1.0 + 1e-12


def decaying_root(z):
    """The square root of z with Im >= 0, and Re >= 0 when Im = 0."""
    root = cmath.sqrt(z)
    return root if root.imag > 0.0 or (root.imag == 0.0 and root.real >= 0.0) else -root


# (stack, what its layers and substrate cover); both algorithms read n cos from _media
ADMITTANCE_STACKS = (
    (tf.LayerStack(1.0, ((1.45, 100.0), (0.2 + 3.5j, 20.0), (2.10, 80.0)), 1.52),
     "propagating and absorbing"),
    (tf.LayerStack(1.6, ((1.0, 200.0), (-1.5, 50.0), (-1.5 + 0.1j, 50.0)), 1.2),
     "evanescent past 38.7 and 48.6 degrees; negative real indices"),
)
ADMITTANCE_ANGLES = (0.0, 0.3, 0.9, 1.3)


class TestAdmittance:
    """n cos(t) of every medium against sqrt(n^2 - n0^2 sin^2 ti) on the decaying
    branch: Snell's law and the branch choice, checked apart from _cos_refracted."""

    @staticmethod
    def want(stack, theta):
        s = stack.ambient * math.sin(theta)
        return np.array([decaying_root(n * n - s * s) for n in stack.indices])

    @pytest.mark.parametrize("stack, what", ADMITTANCE_STACKS, ids=[w for _, w in ADMITTANCE_STACKS])
    def test_one_ray(self, stack, what):
        for theta in ADMITTANCE_ANGLES:
            eta = tf._media(stack, tf.Ray(theta, 780.0))[2]
            want = self.want(stack, theta)
            assert eta.shape == want.shape
            assert np.max(np.abs(eta - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("stack, what", ADMITTANCE_STACKS, ids=[w for _, w in ADMITTANCE_STACKS])
    def test_grid(self, stack, what):
        wavelengths = np.array([500.0, 780.0, 1550.0])
        eta = tf._media(stack, tf.Ray(np.array(ADMITTANCE_ANGLES), wavelengths[:, None]))[2]
        assert eta.shape == (len(stack.indices), len(wavelengths), len(ADMITTANCE_ANGLES))
        for j, theta in enumerate(ADMITTANCE_ANGLES):
            want = self.want(stack, theta)[:, None]
            assert np.max(np.abs(eta[:, :, j] - want) / np.abs(want)) <= 1e-12


ABSORBING_INDEX = st.builds(complex, st.floats(1.3, 2.3), st.floats(0.0, 0.5))
ABSORBING_STACKS = st.builds(
    tf.LayerStack,
    st.just(1.0),
    st.lists(st.tuples(ABSORBING_INDEX, st.floats(10.0, 400.0)), max_size=30).map(tuple),
    ABSORBING_INDEX,
)
ANGLES = st.floats(0.0, math.radians(80.0))
WAVELENGTHS = st.floats(400.0, 1600.0)
ALGORITHMS = (tf.stack_response, tf.stack_response_oracle)

# Packaged HR stack: (angle_deg, wavelength_nm, matrix r_s, r_p, oracle r_s, r_p)
# as the earlier per-ray cmath implementation computed them.  The array form
# reassociates the arithmetic, so only the last digits may move.
PER_RAY_REFERENCE = (
    (10.0, 1064.0, -0.032227685487399925 + 0.11486507460871961j,
     0.09894558660151481 - 0.0422040928447505j,
     -0.03222768548739967 + 0.11486507460872009j, 0.09894558660151276 - 0.04220409284475j),
    (60.0, 500.0, -0.581978260668028 - 0.03649377639422308j,
     -0.026861448528627357 + 0.13857980200513564j,
     -0.5819782606680282 - 0.03649377639422358j, -0.026861448528628106 + 0.13857980200513575j),
    (0.0, 780.0, -0.8138815054556977 - 0.5809263682583852j,
     0.8138815054556977 + 0.5809263682583852j,
     -0.8138815054556976 - 0.5809263682583857j, 0.8138815054556976 + 0.5809263682583857j),
    (80.0, 1550.0, -0.8334607681725534 + 0.013895095202096273j,
     -0.48400140922469503 - 0.06381070240188787j,
     -0.8334607681725532 + 0.013895095202096377j, -0.48400140922469537 - 0.06381070240188766j),
)


class TestArrayRays:
    @settings(max_examples=150, deadline=None)
    @given(ABSORBING_STACKS, ANGLES, WAVELENGTHS)
    def test_absorbing_matrix_agrees_with_oracle(self, stack, angle, wavelength):
        ray = tf.Ray(angle, wavelength)
        a, b = tf.stack_response(stack, ray), tf.stack_response_oracle(stack, ray)
        assert abs(a.r_s - b.r_s) < 1e-10
        assert abs(a.r_p - b.r_p) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(ABSORBING_STACKS, ANGLES, WAVELENGTHS)
    def test_absorbing_stack_is_passive(self, stack, angle, wavelength):
        for algorithm in ALGORITHMS:
            r = algorithm(stack, tf.Ray(angle, wavelength))
            assert abs(r.r_s) <= 1.0 + 1e-12
            assert abs(r.r_p) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(ABSORBING_STACKS, st.lists(ANGLES, min_size=1, max_size=4),
           st.lists(WAVELENGTHS, min_size=1, max_size=3))
    def test_grid_equals_per_ray(self, stack, angles, wavelengths):
        ray = tf.Ray(np.array(angles), np.array(wavelengths)[:, None])
        for algorithm in ALGORITHMS:
            grid = algorithm(stack, ray)
            assert grid.r_s.shape == grid.r_p.shape == (len(wavelengths), len(angles))
            for i, wavelength in enumerate(wavelengths):
                for j, angle in enumerate(angles):
                    one = algorithm(stack, tf.Ray(angle, wavelength))
                    assert abs(grid.r_s[i, j] - one.r_s) <= 1e-13
                    assert abs(grid.r_p[i, j] - one.r_p) <= 1e-13

    def test_one_ray_gives_python_numbers(self):
        for stack in (tf.quarter_wave_stack(), tf.LayerStack(1.0, (), 1.5)):
            for algorithm in ALGORITHMS:
                r = algorithm(stack, tf.Ray(math.radians(45.0), 780.0))
                assert type(r.r_s) is complex and type(r.r_p) is complex
                assert type(r.phase_gap) is float

    def test_bare_interface_grid_keeps_its_shape(self):
        angles, wavelengths = np.linspace(0.0, 1.5, 12), np.linspace(400.0, 1600.0, 13)
        ray = tf.Ray(angles, wavelengths[:, None])
        want = [fresnel(Interface(1.0, 1.5), a) for a in angles]
        for algorithm in ALGORITHMS:
            grid = algorithm(tf.LayerStack(1.0, (), 1.5), ray)
            assert grid.r_s.shape == grid.r_p.shape == (13, 12)
            assert np.max(np.abs(grid.r_s - [w.r_s for w in want])) < 1e-15
            assert np.max(np.abs(grid.r_p - [w.r_p for w in want])) < 1e-15

    @pytest.mark.parametrize("angle_deg, wavelength_nm, m_s, m_p, o_s, o_p", PER_RAY_REFERENCE)
    def test_matches_per_ray_reference(self, angle_deg, wavelength_nm, m_s, m_p, o_s, o_p):
        stack = tf.load_stack_file(Path(tf.__file__).parent / "data" / "hr_coating_stack.txt")
        ray = tf.Ray(math.radians(angle_deg), wavelength_nm)
        for got, want in ((tf.stack_response(stack, ray), (m_s, m_p)),
                          (tf.stack_response_oracle(stack, ray), (o_s, o_p))):
            assert abs(got.r_s - want[0]) <= 1e-12 * abs(want[0])
            assert abs(got.r_p - want[1]) <= 1e-12 * abs(want[1])

    @pytest.mark.parametrize("ray", [
        tf.Ray(0.3, 1e-320),
        tf.Ray(np.array([0.1, 0.3]), np.array([780.0, 1e-320])),
    ])
    def test_floating_point_fault_is_value_error(self, ray):
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match="non-finite stack response"):
                algorithm(two_pair_stack(), ray)

    def test_ray_validation(self):
        with pytest.raises(ValueError, match="got 1.6"):
            tf.Ray(np.array([0.1, 1.6, 2.0]), 780.0)
        with pytest.raises(ValueError, match="got nan"):
            tf.Ray(np.array([0.1, math.nan]), 780.0)
        with pytest.raises(ValueError, match="wavelength"):
            tf.Ray(0.1, np.array([780.0, 0.0]))
        with pytest.raises(ValueError):
            tf.Ray(np.zeros(3), np.full(4, 780.0))
        assert tf.Ray(0.5, 780.0) == tf.Ray(0.5, 780.0)

    @pytest.mark.parametrize("kind", [float, np.float64, np.array, lambda x: [0.5, x]])
    def test_ray_checks_by_input_type(self, kind):
        for bad in (math.nan, math.inf, -math.inf, -0.1, math.pi / 2.0, 2.0):
            with pytest.raises(ValueError, match="incidence angle"):
                tf.Ray(kind(bad), 780.0)
        for bad in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="wavelength must be positive"):
                tf.Ray(0.5, kind(bad))
        ray = tf.Ray(kind(0.0), kind(780.0))
        r_s = tf.stack_response(tf.LayerStack(1.0, (), 1.5), ray).r_s
        assert np.ravel(r_s)[-1] == pytest.approx(-0.2)  # normal incidence, 1.0 / 1.5

    def test_stack_arrays_stay_out_of_repr_and_eq(self):
        stack = two_pair_stack()
        assert "array" not in repr(stack)
        assert stack.indices.shape == (6,) and stack.thicknesses.shape == (4,)
        assert tf.LayerStack(stack.ambient, stack.layers, stack.substrate) == stack


class TestMirrorArrays:
    @pytest.mark.parametrize("bad", [1.0 + 1e-9, 0.6 + 0.8j + 1e-9j, math.nan, complex(math.nan, 0.0)])
    @pytest.mark.parametrize("which", ["r_s", "r_p"])
    def test_one_bad_entry_rejected_in_one_line(self, bad, which):
        values = {"r_s": np.full(5, 0.5 + 0.1j), "r_p": np.full((3, 1), -0.5 + 0j)}
        values[which].flat[2] = bad
        with pytest.raises(ValueError, match="passive mirror") as err:
            MirrorResponse(**values)
        assert len(str(err.value).splitlines()) == 1

    def test_phase_gap_broadcasts_like_remainder(self, rng):
        r_s, r_p = rng.normal(size=(2, 200)) + 1j * rng.normal(size=(2, 200))
        r_s, r_p = r_s / (2.0 * abs(r_s)), r_p / (2.0 * abs(r_p))
        # arg differences of exactly pi, -pi, 2 pi and -2 pi: remainder's ties
        r_s[:4] = [complex(-0.5, 0.0), complex(-0.5, -0.0), complex(-0.5, 0.0), complex(-0.5, -0.0)]
        r_p[:4] = [0.5, 0.5, complex(-0.5, -0.0), complex(-0.5, 0.0)]
        gaps = MirrorResponse(r_s, r_p).phase_gap
        assert gaps.shape == (200,)
        assert gaps[:4].tolist() == [math.pi, -math.pi, 0.0, 0.0]
        for k in range(200):
            want = math.remainder(cmath.phase(r_s[k]) - cmath.phase(r_p[k]), 2.0 * math.pi)
            assert abs(gaps[k] - want) <= 1e-15
            assert abs(MirrorResponse(complex(r_s[k]), complex(r_p[k])).phase_gap - want) <= 1e-15


class TestStackFiles:
    GOOD = """\
# test coating
ambient 1.0 0.0
substrate 1.52 0.0
2.10 0.0 92.86
1.45 0.0 134.48
"""

    def test_parse(self):
        stack = tf.parse_stack_text(self.GOOD)
        assert stack.ambient == 1.0
        assert stack.substrate == 1.52
        assert len(stack.layers) == 2
        assert stack.layers[0] == (2.10 + 0.0j, 92.86)

    def test_roundtrip(self):
        stack = tf.quarter_wave_stack()
        assert tf.parse_stack_text(format_stack(stack)) == stack

    def test_missing_header(self):
        with pytest.raises(ParseError):
            tf.parse_stack_text("substrate 1.5 0.0\n1.4 0.0 100.0\n")

    def test_error_carries_line_number(self):
        bad = "ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 abc\n"
        with pytest.raises(ParseError) as err:
            tf.parse_stack_text(bad)
        assert err.value.line_no == 3
        assert "line 3" in str(err.value)

    def test_nonpositive_thickness_rejected(self):
        bad = "ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 -5.0\n"
        with pytest.raises(ParseError):
            tf.parse_stack_text(bad)
        with pytest.raises(ValueError, match="^layer 0: thickness must be positive, got 0.0$"):
            tf.LayerStack(1.0, ((1.4, 0.0),), 1.5)

    def test_zero_layer_index_rejected(self):
        bad = "ambient 1.0 0.0\nsubstrate 1.5 0.0\n0 -0 100\n"
        with pytest.raises(ParseError, match="^line 3: layer index must be non-zero$"):
            tf.parse_stack_text(bad)

    def test_zero_thickness_line_is_parse_error(self):
        bad = "ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 0\n"
        with pytest.raises(ParseError, match="^line 3: layer thickness must be positive, got 0.0$"):
            tf.parse_stack_text(bad)

    @pytest.mark.parametrize("ambient, substrate", [(1j, 1.5), (1.0, 2j)])
    def test_zero_real_part_rejected(self, ambient, substrate):
        with pytest.raises(ValueError, match="need a positive real part"):
            tf.LayerStack(ambient, (), substrate)

    def test_duplicate_header_rejected(self):
        bad = "ambient 1.0 0.0\nambient 1.0 0.0\nsubstrate 1.5 0.0\n"
        with pytest.raises(ParseError):
            tf.parse_stack_text(bad)

    @pytest.mark.parametrize("text, line_no, message", [
        ("ambient 1.0 0.0\nambient 1.0 0.0\nsubstrate 1.5 0.0\n", 2, "duplicate 'ambient' line"),
        ("substrate 1.5 0.0\nambient 1.0 0.0\n1.4 0.0 9.0\nsubstrate 1.6 0.0\n", 4,
         "duplicate 'substrate' line"),
        ("substrate 1.5 0.0\n1.4 0.0 100.0\n", 0, "missing 'ambient' line"),
        ("ambient 1.0 0.0\n1.4 0.0 100.0\n", 0, "missing 'substrate' line"),
        ("# no header\n", 0, "missing 'ambient' line"),  # ambient is named first
        ("ambient 1.0\nsubstrate 1.5 0.0\n", 1, "'ambient' needs 2 numbers, got 1"),
        ("ambient 1.0 0.0\nsubstrate 1.5 0 0\n", 2, "'substrate' needs 2 numbers, got 3"),
        ("ambient 1.0 0.0\n substrate nan 0 \n", 2,
         "non-numeric or non-finite index in 'substrate nan 0'"),
    ])
    def test_header_error_message(self, text, line_no, message):
        with pytest.raises(ParseError) as err:
            tf.parse_stack_text(text)
        assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")
