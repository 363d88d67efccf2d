"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from polsim import antenna as A
from polsim import cli
from polsim import compensation as C
from polsim import jones as J
from polsim import linksim as L
from polsim import orbit as O
from polsim import thinfilm as tf
from polsim import tle as T
from reference import (Interface, brewster_angle, chsh_analytic, fresnel,
                       fresnel_transmission, is_north_to_south, make_source)

DATA = Path(__file__).resolve().parents[1] / "src" / "polsim" / "data"
SQRT8 = 2.0 * math.sqrt(2.0)

ISS = (
    "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992\n"
    "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298\n"
)


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_01_per_fidelity_anchors():
    f887 = J.per_to_fidelity(887.0)
    f445 = J.per_to_fidelity(445.0)
    assert abs(f887 - 0.99887) < 5e-6
    assert abs(f445 - 0.99776) < 5e-6
    report(1, f"per_to_fidelity(887)={f887:.6f}, per_to_fidelity(445)={f445:.6f}")


def test_02_fresnel_correctness():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n0 = rng.uniform(1.0, 2.0)
        n = rng.uniform(n0 + 0.05, 3.0)
        r = fresnel(Interface(n0, n), brewster_angle(n0, n))
        assert abs(r.r_p) < 1e-10
    for _ in range(100):
        n0, n = rng.uniform(1.0, 2.5, size=2)
        theta = rng.uniform(0.0, math.radians(89.0))
        iface = Interface(n0, n)
        r = fresnel(iface, theta)
        ts, tp = fresnel_transmission(iface, theta)
        factor = (n * tf._cos_refracted(n0, n, theta)).real / (n0 * math.cos(theta))
        assert abs(abs(r.r_s) ** 2 + factor * abs(ts) ** 2 - 1.0) < 1e-10
        assert abs(abs(r.r_p) ** 2 + factor * abs(tp) ** 2 - 1.0) < 1e-10
        r0 = fresnel(iface, 0.0)
        assert abs(abs(r0.r_s) - abs(n - n0) / (n + n0)) < 1e-12
        assert abs(abs(r0.r_p) - abs(n - n0) / (n + n0)) < 1e-12
    report(2, "Brewster nulls, energy conservation, normal-incidence magnitudes")


def test_03_thinfilm_cross_validation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n_layers = int(rng.integers(1, 61))
        layers = tuple(
            (rng.uniform(1.3, 2.3), rng.uniform(10.0, 400.0)) for _ in range(n_layers)
        )
        stack = tf.LayerStack(1.0, layers, rng.uniform(1.3, 2.3))
        ray = tf.Ray(rng.uniform(0.0, math.radians(80.0)), rng.uniform(400.0, 1600.0))
        a = tf.stack_response(stack, ray)
        b = tf.stack_response_oracle(stack, ray)
        worst = max(worst, abs(a.r_s - b.r_s), abs(a.r_p - b.r_p))
    assert worst < 1e-10

    reference = tf.quarter_wave_stack()
    r = tf.stack_response(reference, tf.Ray(math.radians(45.0), 780.0))
    rs2, rp2 = abs(r.r_s) ** 2, abs(r.r_p) ** 2
    assert rs2 > 0.999
    assert rs2 >= rp2
    assert abs(abs(r.phase_gap) - math.pi) < 0.05 * math.pi
    report(3, f"methods agree to {worst:.2e}; reference stack rs2={rs2:.6f} "
              f"rp2={rp2:.6f} gap={r.phase_gap / math.pi:+.4f} pi")


def test_04_antenna_per_floor():
    scan = A.antenna_per_scan(A.DESIGN_GEOMETRY, A.HR_COATING)
    assert len(scan.rows) == 96
    assert scan.min_per >= 400.0
    report(4, f"96-cell scan min PER {scan.min_per:.0f} (>= 400); "
              f"mean PER {scan.mean_per:.3e} (reported, not asserted)")


def _two_selected_passes():
    rec = T.load_tle_file(DATA / "sso_500km.tle")
    t0 = rec.epoch_posix
    passes = O.extract_passes(rec, O.NGARI_STATION, t0, t0 + 2 * 86400.0, threshold_deg=10.0)
    ns = sorted(filter(is_north_to_south, passes), key=lambda p: -p.duration_s)
    return ns[:2]


def test_05_compensation_exactness():
    rng = np.random.default_rng(5)
    zero = C.calibrate_zero_point(J.IDEAL_MIRROR)
    h = J.PolarizationState.h()
    worst = 1.0
    for _ in range(1000):
        theta = rng.uniform(-180.0, 180.0)
        phi = rng.uniform(0.0, 90.0)
        beta = rng.uniform(-90.0, 90.0)
        alpha = C.compensation_angle(theta, phi, beta, zero_point_deg=zero)
        chain = C.compensated_chain(A.PointingDirection(theta, phi), beta, alpha, J.IDEAL_MIRROR)
        worst = min(worst, J.fidelity(chain.apply(h).normalized(), h))
    assert worst >= 1.0 - 1e-9

    coated_min = min(
        float(np.min(C.verify_compensation(p, A.HR_COATING))) for p in _two_selected_passes()
    )
    assert coated_min >= 0.995
    report(5, f"ideal-mirror worst fidelity {worst:.12f}; "
              f"coated-pass min fidelity {coated_min:.6f} (>= 0.995)")


def test_06_rate_bound():
    selected = _two_selected_passes()
    assert len(selected) == 2
    rates = []
    for p in selected:
        assert is_north_to_south(p)
        assert 300.0 <= p.duration_s <= 900.0
        schedule = C.schedule_from_pass(p)
        rates.append(schedule.max_rate_deg_per_s)
        assert schedule.max_rate_deg_per_s < 0.5
    report(6, f"two north-to-south passes, max schedule rates "
              f"{rates[0]:.4f} and {rates[1]:.4f} deg/s (< 0.5)")


def test_07_tle_parser():
    lines = ISS.splitlines()
    # every single-digit mutation breaks validation
    mutations = 0
    for idx in (0, 1):
        original = lines[idx]
        for pos, ch in enumerate(original):
            if not ch.isdigit():
                continue
            for repl in "0123456789":
                if repl == ch:
                    continue
                mutated = list(lines)
                mutated[idx] = original[:pos] + repl + original[pos + 1:]
                with pytest.raises(T.TleParseError):
                    T.parse_tle("\n".join(mutated) + "\n")
                mutations += 1
    # byte-identical round trip
    assert T.format_tle(T.parse_tle(ISS)) == ISS
    # Kepler residual sweep
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(0.0, 2.0 * math.pi)
        e = rng.uniform(0.0, 0.9)
        ecc = O.solve_kepler(m, e)
        worst = max(worst, abs(ecc - e * math.sin(ecc) - m))
    assert worst < 1e-12
    report(7, f"{mutations} digit mutations all caught; round-trip byte-identical; "
              f"Kepler worst residual {worst:.2e}")


def test_08_chsh_analytic_anchors():
    s_pure = chsh_analytic(make_source(1.0))
    assert abs(s_pure - SQRT8) < 1e-12
    for v in (0.3, 0.5, 0.7, 0.91053333):
        s = chsh_analytic(make_source((3.0 * v + 1.0) / 4.0))
        assert abs(s - SQRT8 * v) < 1e-12
    s_flight = chsh_analytic(make_source(0.9329))
    assert abs(s_flight - 2.5754) < 1e-4
    report(8, f"S(pure)={s_pure:.12f}; S(F=0.9329)={s_flight:.6f}")


@pytest.fixture(scope="module")
def calibrated_bell():
    source = L.SourceModel(0.9329, 1e6)
    channel, det = L.calibrate_bell(
        source, L.ChannelModel(46.0), L.DetectionModel(), s_target=2.312, total_target=2138.0
    )
    return source, channel, det


def test_09_bell_statistical_reproduction(calibrated_bell):
    source, channel, det = calibrated_bell
    s_exp, total_exp = L.expected_chsh(source, channel, det)
    assert abs(s_exp - 2.312) < 1e-9
    assert abs(total_exp - 2138.0) < 1e-6

    s_vals, sigmas, z = [], [], []
    for seed in range(200):
        r = L.estimate_chsh(L.simulate_chsh_counts(source, channel, det, seed=seed))
        s_vals.append(r.s_value)
        sigmas.append(r.s_error)
        z.append((r.s_value - 2.312) / r.s_error)
    mean_s = float(np.mean(s_vals))
    assert abs(mean_s - 2.312) < 0.02
    assert all(0.06 <= s <= 0.14 for s in sigmas)
    p_value = stats.kstest(np.array(z), "norm").pvalue
    assert p_value > 0.01
    report(9, f"200-seed mean S {mean_s:.4f} (target 2.312); "
              f"sigma_S in [{min(sigmas):.4f}, {max(sigmas):.4f}]; KS p={p_value:.3f}")


def test_10_estimator_consistency():
    results = []
    for v in (1.0, 0.9, 0.7):
        source = L.SourceModel((3.0 * v + 1.0) / 4.0, 1e6)
        channel = L.ChannelModel(46.0)
        det = L.DetectionModel(dark_rate_hz=0.0, integration_time_s=85.0)
        s_vals, sigmas = [], []
        for seed in range(200):
            r = L.estimate_chsh(L.simulate_chsh_counts(source, channel, det, seed=seed))
            s_vals.append(r.s_value)
            sigmas.append(r.s_error)
        empirical = float(np.std(s_vals, ddof=1))
        propagated = float(np.mean(sigmas))
        rel = abs(propagated - empirical) / empirical
        assert rel < 0.20
        results.append(f"V={v}: {rel:.3f}")
    report(10, "propagated vs empirical sigma_S rel dev " + ", ".join(results))


def test_11_cli_determinism(tmp_path, capsys):
    commands = [
        ["coating"],
        ["per-map"],
        ["compensate"],
        ["offset-scan"],
        ["bell", "--seed", "0"],
    ]
    for argv in commands:
        outputs = []
        for run_dir in ("a", "b"):
            out_dir = tmp_path / argv[0] / run_dir
            out_dir.mkdir(parents=True)
            code = cli.main(argv + ["--out", str(out_dir)])
            assert code == 0
            outputs.append((out_dir, capsys.readouterr().out))
        (dir_a, stdout_a), (dir_b, stdout_b) = outputs
        assert stdout_a.replace(str(dir_a), "") == stdout_b.replace(str(dir_b), "")
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    report(11, "all five commands byte-identical across repeated runs")
