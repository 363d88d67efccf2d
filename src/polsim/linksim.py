"""End-to-end uplink Monte Carlo: entangled source, lossy channel, CHSH.

The source emits pairs in the Bell state (|HH> + |VV>)/sqrt(2); a scalar
source fidelity F maps onto the isotropic Werner mixture
rho = V |Phi+><Phi+| + (1 - V) I/4 with V = (4F - 1)/3.  Photon 1 rides the
uplink (loss, optional extra rotation, optional depolarization) and is
analyzed on the satellite at phi1; photon 2 is analyzed locally at phi2.

Correlations combine the four analyzer-pair probabilities exactly the way
the experimental estimator combines coincidence counts:

    E = (C(p1,p2) + C(p1t,p2t) - C(p1,p2t) - C(p1t,p2)) / (sum of the four)

with t marking the orthogonal analyzer port, and the CHSH statistic is
S = |E1 - E2 + E3 + E4| over the four setting pairs.  Counts are Poisson
with means = pair rate x transmission x efficiencies x probability x time,
plus accidentals from singles (dark counts included) inside the coincidence
window.  Randomness comes from a counter-based Philox generator keyed as
(seed, setting index), so every run is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .antenna import PointingDirection
from .compensation import calibrate_zero_point, compensated_chain, compensation_angle
from .jones import OpticalElement, PolarizationState, fidelity, identity_element, rotator
from .table import json_text, write_table

# Analyzer settings of the uplink Bell test: (satellite, ground) angle pairs
# in the order (p1,p2), (p1,p2'), (p1',p2), (p1',p2') used by the S formula.
BELL_TEST_SETTINGS = (
    (0.0, math.pi / 8.0),
    (0.0, 3.0 * math.pi / 8.0),
    (math.pi / 4.0, math.pi / 8.0),
    (math.pi / 4.0, 3.0 * math.pi / 8.0),
)

# numpy's Poisson sampler refuses a mean above int64 max - 10 sqrt(int64 max)
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


class EstimationError(ValueError):
    """Raised when counts cannot support a CHSH estimate."""


@dataclass(frozen=True)
class SourceModel:
    fidelity: float
    pair_rate_hz: float

    def __post_init__(self):
        if not 0.25 <= self.fidelity <= 1.0:
            raise ValueError("source fidelity must be in [0.25, 1]")
        if not 0.0 < self.pair_rate_hz < math.inf:
            raise ValueError("pair rate must be finite and positive")


@dataclass(frozen=True)
class ChannelModel:
    loss_db: float
    rotation: OpticalElement = None
    depolarization: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss_db < math.inf:
            raise ValueError("loss must be finite and non-negative (dB)")
        if not 0.0 <= self.depolarization <= 1.0:
            raise ValueError("depolarization probability must be in [0, 1]")
        if self.rotation is None:
            object.__setattr__(self, "rotation", identity_element())
        if not self.rotation.is_unitary():
            raise ValueError("channel rotation must be a unitary Jones matrix")

    @property
    def transmission(self):
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class DetectionModel:
    efficiency: float = 0.5
    dark_rate_hz: float = 100.0
    coincidence_window_s: float = 2.5e-9
    integration_time_s: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0.0 <= self.dark_rate_hz < math.inf:
            raise ValueError("dark rate must be finite and non-negative")
        if not 0.0 < self.coincidence_window_s < math.inf:
            raise ValueError("coincidence window must be finite and positive")
        if not 0.0 < self.integration_time_s < math.inf:
            raise ValueError("integration time must be finite and positive")


def _expected_counts(source, channel, det, phi1, phi2):
    """Expected (true + accidental) coincidence means, order (pp, mm, pm, mp).

    The channel keeps the source a Werner state: with w = V (1 - p) and
    |psi> = (U x I)|Phi+>, rho = w |psi><psi| + (1 - w) I/4, so a port pair
    (a, b) fires with P = w |a^T U b|^2 / 2 + (1 - w)/4, and both photons keep
    the marginal I/2 whatever the analyzer port.
    """
    w = (4.0 * source.fidelity - 1.0) / 3.0 * (1.0 - channel.depolarization)
    a = np.array([[math.cos(phi1), math.sin(phi1)], [-math.sin(phi1), math.cos(phi1)]])
    b = np.array([[math.cos(phi2), math.sin(phi2)], [-math.sin(phi2), math.cos(phi2)]])
    # amp[i, j]: satellite port i, ground port j (0 = analyzer axis, 1 = orthogonal)
    amp = np.abs(a @ channel.rotation.matrix @ b.T) ** 2 / 2.0
    probs = w * amp[[0, 1, 0, 1], [0, 1, 1, 0]] + (1.0 - w) / 4.0
    rate, trans = source.pair_rate_hz, channel.transmission
    eta, t = det.efficiency, det.integration_time_s
    pair_rate = rate * trans * eta * eta

    # singles per analyzer port (photon 1 = satellite side is the lossy arm);
    # the accidental mean of every port pair is S1 * S2 * window * time
    s1 = rate * trans * eta / 2.0 + det.dark_rate_hz
    s2 = rate * eta / 2.0 + det.dark_rate_hz
    accidental = s1 * s2 * det.coincidence_window_s * t
    # every mean is below this bound (probs < 1); on Python floats an overflow
    # gives inf, where the array arithmetic below would warn
    if not pair_rate * t + accidental < math.inf:
        raise ValueError("expected coincidence counts overflow")
    return pair_rate * probs * t + accidental


def simulate_coincidences(source, channel, det, phi1, phi2, seed, stream=0):
    """Poisson coincidence counts (c_pp, c_mm, c_pm, c_mp) for one setting.

    `stream` separates the random streams of different settings under one
    seed; the generator is Philox keyed with (seed, stream).
    """
    means = _expected_counts(source, channel, det, phi1, phi2)
    largest = max(means.tolist())  # finite: _expected_counts checks for overflow
    if largest > POISSON_MEAN_MAX:
        raise ValueError(f"expected coincidence count {largest:.6g} exceeds the Poisson "
                         f"sampler's limit {POISSON_MEAN_MAX:.6g}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return tuple(int(c) for c in rng.poisson(means))


def simulate_chsh_counts(source, channel, det, settings=BELL_TEST_SETTINGS, seed=0):
    """Coincidence quadruples for all four settings (stream = setting index)."""
    return [
        simulate_coincidences(source, channel, det, p1, p2, seed, stream=i)
        for i, (p1, p2) in enumerate(settings)
    ]


@dataclass(frozen=True)
class ChshResult:
    settings: tuple  # four (phi1, phi2) pairs
    correlations: tuple  # four E values
    correlation_errors: tuple  # four sigma_E
    s_value: float
    s_error: float
    total_coincidences: float

    def to_json(self, extra=None):
        payload = {
            "settings_rad": [list(s) for s in self.settings],
            "E": list(self.correlations),
            "sigma_E": list(self.correlation_errors),
            "S": self.s_value,
            "sigma_S": self.s_error,
            "total_coincidences": self.total_coincidences,
        }
        if extra:
            payload.update(extra)
        return json_text(payload)


def _correlation_from_counts(quad):
    c_pp, c_mm, c_pm, c_mp = (float(c) for c in quad)
    if not all(0.0 <= c < math.inf for c in (c_pp, c_mm, c_pm, c_mp)):
        raise EstimationError("coincidence counts must be finite and non-negative")
    same = c_pp + c_mm
    cross = c_pm + c_mp
    n = same + cross
    if n <= 0.0:
        raise EstimationError("zero total coincidences at a setting")
    e = (same - cross) / n
    # first-order Poisson propagation (var C = C) collapses to 4 A B / N^3,
    # written so that no intermediate overflows
    var = 4.0 * (same / n) * (cross / n) / n
    return e, math.sqrt(var), n


def estimate_chsh(counts, settings=BELL_TEST_SETTINGS, error_method="propagation",
                  n_boot=500, boot_seed=0):
    """CHSH estimate from four coincidence quadruples.

    Errors come from first-order Poisson propagation by default; the
    `bootstrap` method resamples every count as Poisson(C) instead, which
    behaves better when individual counts are nearly zero.
    """
    if len(counts) != 4:
        raise EstimationError("need counts for exactly four settings")
    per_setting = [_correlation_from_counts(q) for q in counts]
    e_vals = [p[0] for p in per_setting]
    s_value = abs(e_vals[0] - e_vals[1] + e_vals[2] + e_vals[3])
    total = sum(p[2] for p in per_setting)

    if error_method == "propagation":
        e_errs = [p[1] for p in per_setting]
        s_err = math.sqrt(sum(err**2 for err in e_errs))
    elif error_method == "bootstrap":
        if n_boot < 2:
            raise ValueError(f"bootstrap needs n_boot >= 2 resamples, got {n_boot!r}")
        rng = np.random.Generator(np.random.Philox(key=np.array([boot_seed, 2**32], dtype=np.uint64)))
        resampled = rng.poisson(np.asarray(counts, dtype=float), size=(n_boot, 4, 4))
        same = resampled[..., 0] + resampled[..., 1]
        cross = resampled[..., 2] + resampled[..., 3]
        n = same + cross
        e_samples = (same - cross) / np.maximum(n, 1)  # n = 0 only when same = cross = 0
        e_errs = list(np.std(e_samples, axis=0, ddof=1))
        s_boot = np.abs(e_samples[:, 0] - e_samples[:, 1] + e_samples[:, 2] + e_samples[:, 3])
        s_err = float(np.std(s_boot, ddof=1))
    else:
        raise ValueError(f"unknown error method {error_method!r}")

    return ChshResult(
        settings=tuple(tuple(s) for s in settings),
        correlations=tuple(e_vals),
        correlation_errors=tuple(float(x) for x in e_errs),
        s_value=float(s_value),
        s_error=float(s_err),
        total_coincidences=float(total),
    )


def expected_chsh(source, channel, det, settings=BELL_TEST_SETTINGS):
    """S and total coincidences of the full count model, evaluated on means."""
    means = [_expected_counts(source, channel, det, p1, p2) for p1, p2 in settings]
    result = estimate_chsh(means, settings)
    return result.s_value, result.total_coincidences


def calibrate_bell(source, channel, det, s_target, total_target,
                   settings=BELL_TEST_SETTINGS):
    """Solve for channel depolarization and integration time.

    Sets the effective visibility (via the channel depolarization knob) that
    makes the full count model's expected S equal `s_target`, then scales the
    integration time so expected total coincidences equal `total_target`.
    Each expected E_k is V (1 - p) e_k N_k / (N_k + 4 A_k), with e_k the
    pure-state correlation, N_k the true and A_k the accidental coincidences
    per port pair; neither depends on p, so S(p) = (1 - p) S(0).
    Attributes no physical cause; it is an effective-noise calibration.
    Raises ValueError when the calibrated model misses either target by more
    than 1e-9 relative.
    """
    s_max, _ = expected_chsh(source, replace(channel, depolarization=0.0), det, settings)
    if s_target > s_max:
        raise ValueError(f"target S {s_target} above the model's reach {s_max:.4f}")
    depol = 1.0 - s_target / s_max if s_max > 0.0 else 0.0
    channel = replace(channel, depolarization=depol)

    _, total_now = expected_chsh(source, channel, det, settings)
    det = replace(det, integration_time_s=det.integration_time_s * total_target / total_now)
    s_got, total_got = expected_chsh(source, channel, det, settings)
    # subnormal counts lose the digits the two scalings need
    if not (abs(s_got - s_target) <= 1e-9 * s_target
            and abs(total_got - total_target) <= 1e-9 * total_target):
        raise ValueError(f"calibrated model gives S {s_got:.9g} and {total_got:.9g} "
                         f"coincidences, not {s_target!r} and {total_target!r}")
    return channel, det


# --- counts CSV (one row per setting) ---------------------------------------


COUNTS_FORMAT = (("setting_phi1_rad", float), ("setting_phi2_rad", float), ("c_pp", float),
                 ("c_mm", float), ("c_pm", float), ("c_mp", float))


def counts_to_csv(counts, settings=BELL_TEST_SETTINGS):
    return write_table(COUNTS_FORMAT, (*zip(*settings), *zip(*counts)))


# --- offset-angle fidelity scan ---------------------------------------------


def offset_scan(ground_offsets_deg, sat_offsets_deg, coating, state=None,
                azimuth_deg=30.0, elevation_deg=50.0, beta_deg=0.0,
                zero_point_deg=None, sign=1):
    """Compensated-uplink fidelity over (ground, satellite) offset angles.

    The ground offset is added to the scheduled HWP angle; through the HWP's
    factor-of-two lever a ground offset g and satellite analyzer-frame offset
    s leave a residual rotation of 2g + s, so ideal optics give exactly
    cos^2(2g + s).  Returns an array of shape (len(ground), len(satellite)).
    """
    if len(ground_offsets_deg) == 0 or len(sat_offsets_deg) == 0:
        raise ValueError("offset grids must be non-empty")
    if state is None:
        state = PolarizationState.h()
    if zero_point_deg is None:
        zero_point_deg = calibrate_zero_point(coating, state)

    direction = PointingDirection(azimuth_deg, elevation_deg)
    alpha = compensation_angle(azimuth_deg, elevation_deg, beta_deg, zero_point_deg, sign)
    ground = alpha + np.asarray(ground_offsets_deg, dtype=float)[:, None]
    out = compensated_chain(direction, beta_deg, ground, coating).apply(state).normalized()
    received = rotator(np.radians(np.asarray(sat_offsets_deg, dtype=float))).apply(out)
    return fidelity(received, state)


OFFSET_SCAN_FORMAT = (("ground_offset_deg", float), ("sat_offset_deg", float), ("fidelity", float))


def offset_scan_csv(ground_offsets_deg, sat_offsets_deg, grid):
    """Rows in grid order: ground offset outer, satellite offset inner."""
    ground, sat = np.meshgrid(ground_offsets_deg, sat_offsets_deg, indexing="ij")
    return write_table(OFFSET_SCAN_FORMAT, (ground.ravel(), sat.ravel(), np.ravel(grid)))
