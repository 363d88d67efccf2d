"""Textbook oracles the tests check polsim against.

Nothing in `polsim` runs this code.  It holds the general density-matrix
CHSH model that the Werner closed form in `linksim` replaced, that closed
form's count means frozen as one uncached expression (`_count_means` must
match it bit for bit, whatever its cache holds), the
one-generator-per-setting sampler that `simulate_chsh_counts` must match draw
for draw on those frozen means, the single-interface Fresnel equations that
an empty `LayerStack` reproduces, the dense pass scan that `extract_passes`
must match bit for bit, with its azimuth, elevation and beta rows built by
formulas frozen in their earlier (n, 3) form, the SVD residual that the
fiber solver's closed form must match, and small helpers that only the tests
need.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from polsim.jones import MirrorResponse
from polsim.linksim import BELL_TEST_SETTINGS
from polsim.orbit import (R_EARTH_KM, PassProfile, _az_el, _crossing, _ellipse, _site, _state,
                          gmst_rad)
from polsim.thinfilm import _cos_refracted

# --- density-matrix CHSH model ----------------------------------------------

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix in the {HH, HV, VH, VV} basis."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
        if not np.allclose(rho, rho.conj().T, atol=1e-12, rtol=0.0):
            raise ValueError("density matrix must be Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("density matrix trace must be 1 within 1e-12")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-10:
            raise ValueError(f"density matrix must be PSD, min eigenvalue {eigs.min():.3e}")

    def fidelity_to_phi_plus(self):
        return float((PHI_PLUS.conj() @ self.rho @ PHI_PLUS).real)


def make_source(source_fidelity):
    """Werner state whose overlap with |Phi+> equals `source_fidelity`."""
    if not 0.25 <= source_fidelity <= 1.0:
        raise ValueError(f"source fidelity must be in [0.25, 1], got {source_fidelity!r}")
    visibility = (4.0 * source_fidelity - 1.0) / 3.0
    rho = visibility * np.outer(PHI_PLUS, PHI_PLUS.conj()) + (1.0 - visibility) * np.eye(4) / 4.0
    return TwoQubitState(rho)


def linear_projector(angle):
    v = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
    return np.outer(v, v.conj())


def pair_probabilities(rho, phi1, phi2):
    """Probabilities of the 4 analyzer-port pairs, order (pp, mm, pm, mp)."""
    p1 = linear_projector(phi1)
    p1t = linear_projector(phi1 + math.pi / 2.0)
    p2 = linear_projector(phi2)
    p2t = linear_projector(phi2 + math.pi / 2.0)
    out = []
    for a, b in ((p1, p2), (p1t, p2t), (p1, p2t), (p1t, p2)):
        out.append(float(np.trace(rho @ np.kron(a, b)).real))
    return np.array(out)


def correlation(state, phi1, phi2):
    """Analytic joint correlation E(phi1, phi2) for +/-1 analyzer outcomes."""
    probs = pair_probabilities(state.rho, phi1, phi2)
    return float((probs[0] + probs[1] - probs[2] - probs[3]) / probs.sum())


def chsh_analytic(state, settings=BELL_TEST_SETTINGS):
    """S = |E(p1,p2) - E(p1,p2') + E(p1',p2) + E(p1',p2')| on analytic E."""
    if len(settings) != 4:
        raise ValueError("CHSH needs exactly four setting pairs")
    e = [correlation(state, p1, p2) for p1, p2 in settings]
    return abs(e[0] - e[1] + e[2] + e[3])


def density_matrix_counts(source, channel, det, phi1, phi2):
    """Reference count model on the full 4x4 density matrix: the rotation and
    the depolarization act on photon 1 through Kronecker products, and every
    probability and singles rate is a trace against a port projector."""
    rho = make_source(source.fidelity).rho
    u = np.kron(channel.rotation.matrix, np.eye(2))
    rho = u @ rho @ u.conj().T
    p = channel.depolarization
    rho2 = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)  # trace over photon 1
    rho = (1.0 - p) * rho + p * np.kron(np.eye(2) / 2.0, rho2)
    probs = pair_probabilities(rho, phi1, phi2)

    rate, trans = source.pair_rate_hz, channel.transmission
    eta, t = det.efficiency, det.integration_time_s
    eye = np.eye(2)
    ports1 = [linear_projector(phi1 + k * math.pi / 2.0) for k in (0, 1)]
    ports2 = [linear_projector(phi2 + k * math.pi / 2.0) for k in (0, 1)]
    s1 = [rate * trans * eta * np.trace(rho @ np.kron(a, eye)).real + det.dark_rate_hz
          for a in ports1]
    s2 = [rate * eta * np.trace(rho @ np.kron(eye, b)).real + det.dark_rate_hz for b in ports2]
    acc = np.array([s1[0] * s2[0], s1[1] * s2[1], s1[0] * s2[1], s1[1] * s2[0]])
    return rate * trans * eta * eta * probs * t + acc * det.coincidence_window_s * t


def frozen_expected_counts(source, channel, det, settings):
    """The Werner count means as one expression, recomputed on every call:
    w |a^T U b|^2 / 2 + (1 - w)/4 per port pair, times the true pair rate and
    integration time, plus S1 S2 window time accidentals."""
    w = (4.0 * source.fidelity - 1.0) / 3.0 * (1.0 - channel.depolarization)
    a, b = (np.array([[[math.cos(p), math.sin(p)], [-math.sin(p), math.cos(p)]] for p in phis])
            for phis in zip(*settings))
    amp = np.abs(a @ channel.rotation.matrix @ b.transpose(0, 2, 1)) ** 2 / 2.0
    probs = w * amp.reshape(-1, 4)[:, [0, 3, 1, 2]] + (1.0 - w) / 4.0
    rate, trans = source.pair_rate_hz, channel.transmission
    eta, t = det.efficiency, det.integration_time_s
    s1 = rate * trans * eta / 2.0 + det.dark_rate_hz
    s2 = rate * eta / 2.0 + det.dark_rate_hz
    return rate * trans * eta * eta * probs * t + s1 * s2 * det.coincidence_window_s * t


def fresh_philox_counts(source, channel, det, settings, seed):
    """The sampling contract one setting at a time: setting k's counts are
    Poisson draws, in (pp, mm, pm, mp) order, from a fresh
    Generator(Philox(key=[seed, k])) on that setting's own means."""
    counts = []
    for k, setting in enumerate(settings):
        means = frozen_expected_counts(source, channel, det, (setting,))[0]
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        counts.append(tuple(int(c) for c in rng.poisson(means)))
    return counts


# --- single-interface Fresnel equations --------------------------------------


@dataclass(frozen=True)
class Interface:
    """Refractive index pair across one boundary (incident side first)."""

    n0: complex
    n: complex

    def __post_init__(self):
        if complex(self.n0).real <= 0.0 or complex(self.n).real <= 0.0:
            raise ValueError("refractive indices need a positive real part")


def _check_angle(theta_i):
    if not (0.0 <= theta_i < math.pi / 2.0):
        raise ValueError(f"incidence angle must be in [0, pi/2), got {theta_i!r}")


def snell(iface, theta_i):
    """Transmitted angle from n0 sin(ti) = n sin(tt); complex past TIR."""
    _check_angle(theta_i)
    return cmath.asin(complex(iface.n0) * cmath.sin(theta_i) / complex(iface.n))


def fresnel(iface, theta_i):
    """Amplitude reflectances of a single interface as a MirrorResponse:

        r_s = (n0 cos(ti) - n cos(tt)) / (n0 cos(ti) + n cos(tt))
        r_p = (n cos(ti) - n0 cos(tt)) / (n cos(ti) + n0 cos(tt))

    in the sign convention where r_s and r_p differ in sign at normal incidence.
    """
    _check_angle(theta_i)
    n0, n = complex(iface.n0), complex(iface.n)
    cos_i, cos_t = cmath.cos(theta_i), _cos_refracted(n0, n, theta_i)
    return MirrorResponse((n0 * cos_i - n * cos_t) / (n0 * cos_i + n * cos_t),
                          (n * cos_i - n0 * cos_t) / (n * cos_i + n0 * cos_t))


def fresnel_transmission(iface, theta_i):
    """Amplitude transmissions (t_s, t_p) of a single interface."""
    n0, n = complex(iface.n0), complex(iface.n)
    cos_i, cos_t = cmath.cos(theta_i), _cos_refracted(n0, n, theta_i)
    ts = 2.0 * n0 * cos_i / (n0 * cos_i + n * cos_t)
    tp = 2.0 * n0 * cos_i / (n * cos_i + n0 * cos_t)
    return ts, tp


def brewster_angle(n0, n):
    """Angle with r_p = 0 for a real-index pair: atan(n/n0)."""
    return math.atan2(float(n), float(n0))


# --- frozen pass-row formulas -----------------------------------------------
# The (n, 3) forms polsim.orbit used before its rows shared one GMST and
# summed beta's norms and dot products component by component; the dense scan
# below builds its rows with them, so extract_passes must keep their bits.


def rotate_z(vec, angle_rad):
    """Vectors (..., 3) turned by `angle_rad` about z."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    x, y, z = np.moveaxis(np.asarray(vec, dtype=float), -1, 0)
    return np.stack([c * x - s * y, s * x + c * y, z], axis=-1)


def station_position_km(station):
    """Station ECEF position, km, on a spherical Earth."""
    lat, lon = math.radians(station.latitude_deg), math.radians(station.longitude_deg)
    r = R_EARTH_KM + station.altitude_m / 1000.0
    return np.array([r * math.cos(lat) * math.cos(lon), r * math.cos(lat) * math.sin(lon),
                     r * math.sin(lat)])


def look_angles(sat_eci_km, station, t):
    """(azimuth_deg, elevation_deg) arrays of ECI positions (n, 3) at times t."""
    lat, lon = math.radians(station.latitude_deg), math.radians(station.longitude_deg)
    sl, cl, so, co = math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)
    rel = rotate_z(sat_eci_km, -gmst_rad(t)) - station_position_km(station)
    e = rel @ np.array([-so, co, 0.0])
    n = rel @ np.array([-sl * co, -sl * so, cl])
    u = rel @ np.array([cl * co, cl * so, sl])
    horizontal = np.hypot(e, n)
    az = np.where(horizontal < 1e-9, 0.0, np.degrees(np.arctan2(e, n)) % 360.0)
    return az, np.degrees(np.arctan2(u, horizontal))


def beta_from_state(pos, vel, station, t):
    """Satellite telescope angle, degrees, of ECI states (n, 3) at times t."""
    los = rotate_z(np.broadcast_to(station_position_km(station), pos.shape), gmst_rad(t)) - pos
    r_hat = pos / np.linalg.norm(pos, axis=-1, keepdims=True)
    along = vel - np.sum(vel * r_hat, axis=-1, keepdims=True) * r_hat
    along = along / np.linalg.norm(along, axis=-1, keepdims=True)
    return np.degrees(np.arctan2(np.sum(los * along, axis=-1), -np.sum(los * r_hat, axis=-1)))


# --- orbit geometry ----------------------------------------------------------
# Short entry points into polsim.orbit's private geometry for the tests.


def state(rec, t):
    """ECI positions (km) and velocities (km/s), shape (n, 3), at POSIX times t
    (a scalar is one time), on the record's Kepler ellipse."""
    return _state(rec, _ellipse(rec), np.atleast_1d(np.asarray(t, dtype=float)))


def az_el_range(sat_eci_km, station, t):
    """Azimuth (deg, 0 at the zenith), elevation (deg) and range (km) arrays of
    ECI positions (3,) or (n, 3) from `station` at POSIX times t."""
    return _az_el(sat_eci_km, gmst_rad(t), _site(station))


# --- dense pass scan ---------------------------------------------------------


def dense_passes(rec, station, t_start, t_end, threshold_deg, step_s):
    """extract_passes with no scan: the elevation at every sample of the
    np.arange step grid, one pass per run of samples at or above the
    threshold that touches no window edge, and every rise and set found at
    once by `_crossing` from the grid samples on either side of it."""
    grid = np.arange(t_start, t_end + step_s / 2.0, step_s)

    def elevation(t):
        return look_angles(state(rec, t)[0], station, t)[1]

    el = elevation(grid)
    up = el >= threshold_deg
    runs = [run for run in np.split(np.arange(len(grid)), np.flatnonzero(np.diff(up)) + 1)
            if up[run[0]] and run[0] > 0 and run[-1] < len(grid) - 1]
    if not runs:
        return []
    lo = np.array([run[0] - 1 for run in runs] + [run[-1] for run in runs])
    crossings = _crossing(lambda t: elevation(t) - threshold_deg, grid[lo], grid[lo + 1],
                          el[lo] - threshold_deg, el[lo + 1] - threshold_deg)
    passes = []
    for run, t_rise, t_set in zip(runs, *np.split(crossings, 2)):
        inner = grid[run]
        times = np.r_[t_rise, inner[(inner > t_rise) & (inner < t_set)], t_set]
        pos, vel = state(rec, times)
        az, el_pass = look_angles(pos, station, times)
        passes.append(PassProfile(times, az, el_pass, beta_from_state(pos, vel, station, times)))
    return passes


# --- fiber-compensation residual ----------------------------------------------


def phase_aligned_residual(m):
    """Operator-norm distance, by SVD, of a (..., 2, 2) Jones matrix stack from
    the nearest phase times identity, the phase taken from each trace (1 where
    the trace vanishes)."""
    m = np.asarray(m, dtype=complex)
    tr = m[..., 0, 0] + m[..., 1, 1]
    lam = np.ones_like(tr)
    big = abs(tr) > 1e-12
    lam[big] = tr[big] / abs(tr[big])
    return np.linalg.norm(m - lam[..., None, None] * np.eye(2), 2, axis=(-2, -1))


# --- helpers -----------------------------------------------------------------


def format_stack(stack):
    """Stack-file text that `parse_stack_text` reads back to `stack`."""
    amb, sub = complex(stack.ambient), complex(stack.substrate)
    lines = [
        f"ambient {amb.real!r} {amb.imag!r}",
        f"substrate {sub.real!r} {sub.imag!r}",
    ]
    for n, d in stack.layers:
        lines.append(f"{n.real!r} {n.imag!r} {d!r}")
    return "\n".join(lines) + "\n"


def is_north_to_south(pass_profile):
    """True when the pass starts on the north side and ends on the south."""
    start = math.cos(math.radians(pass_profile.azimuth_deg[0]))
    end = math.cos(math.radians(pass_profile.azimuth_deg[-1]))
    return start > 0.0 > end
