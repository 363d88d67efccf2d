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
(seed, setting index), so every run is bit-reproducible.  Each generator is
put at counter 0 under its key directly, so none reads OS entropy for a seed
the key then replaces, and the count means of a link model are computed once
and shared by all of its seeds and by calibration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .antenna import PointingDirection
from .compensation import compensated_chain, compensation_angle
from .frozen import frozen
from .jones import IDENTITY, OpticalElement, PolarizationState, fidelity, rotator
from .table import check_degrees, json_text, write_table

# Analyzer settings of the uplink Bell test: (satellite, ground) angle pairs
# in the order (p1,p2), (p1,p2'), (p1',p2), (p1',p2') used by the S formula.
BELL_TEST_SETTINGS = (
    (0.0, math.pi / 8.0),
    (0.0, 3.0 * math.pi / 8.0),
    (math.pi / 4.0, math.pi / 8.0),
    (math.pi / 4.0, 3.0 * math.pi / 8.0),
)

# The bootstrap error draws this many Poisson resamples of each setting's
# same-port and cross-port sums, from Philox key (0, 2**32): a stream no
# simulation seed's (seed, k) can reach.
BOOTSTRAP_RESAMPLES = 500

# the largest mean drawn: numpy's Poisson draws spread wrongly above about 1e14
# (sd / sqrt(mean) 1.04 at 3e14, 1.2-1.3 from 1e16), far past any physical link
POISSON_MEAN_MAX = 1e14


@frozen
class SourceModel:
    """Entangled-pair source: Werner-state fidelity and pair rate (Hz)."""
    fidelity: float
    pair_rate_hz: float

    def __post_init__(self):
        if not 0.25 <= self.fidelity <= 1.0:
            raise ValueError("source fidelity must be in [0.25, 1]")
        if not 0.0 < self.pair_rate_hz < math.inf:
            raise ValueError("pair rate must be finite and positive")
        vars(self).update({name: float(value) for name, value in vars(self).items()})


@frozen
class ChannelModel:
    """Uplink channel: loss (dB), unitary rotation, depolarization."""
    loss_db: float
    rotation: OpticalElement = IDENTITY
    depolarization: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss_db < math.inf:
            raise ValueError("loss must be finite and non-negative (dB)")
        if not 0.0 <= self.depolarization <= 1.0:
            raise ValueError("depolarization probability must be in [0, 1]")
        if not (all(map(np.isscalar, vars(self.rotation).values()))  # a batch has no hash
                and self.rotation.is_unitary()):
            raise ValueError("channel rotation must be one unitary Jones matrix")
        vars(self).update(loss_db=float(self.loss_db), depolarization=float(self.depolarization))

    @property
    def transmission(self):
        return 10.0 ** (-self.loss_db / 10.0)


@frozen
class DetectionModel:
    """Detectors: efficiency, dark rate (Hz), coincidence window and integration time (s)."""
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
        vars(self).update({name: float(value) for name, value in vars(self).items()})


@functools.cache
def _zero_seed():
    """A stateless seed source of zeros: a Philox built from it reads no OS
    entropy.  Made on first use, since naming numpy.random imports it."""
    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)
    return ZeroSeed()


def _rekey(bitgen, seed, stream):
    """Counter 0 and an empty buffer under key (seed, stream): what a new
    Philox(key=[seed, stream]) holds."""
    bitgen.state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
                    "state": {"counter": (0,) * 4, "key": (seed, stream)},
                    "has_uint32": 0, "uinteger": 0}


def _philox(seed, stream):
    """Philox at counter 0 under key (seed, stream)."""
    if not 0 <= seed < 2**64:  # a key word is 64 bits; numpy raises OverflowError
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    bitgen = np.random.Philox(_zero_seed())
    _rekey(bitgen, seed, stream)
    return bitgen


@functools.lru_cache(maxsize=32)
def _count_means(source, channel, det):
    """Expected (true + accidental) coincidence means, a row (pp, mm, pm, mp) of
    Python floats per setting, computed once per link model.

    The channel keeps the source a Werner state: with w = V (1 - p) and
    |psi> = (U x I)|Phi+>, rho = w |psi><psi| + (1 - w) I/4, so a port pair
    (a, b) fires with P = w |a^T U b|^2 / 2 + (1 - w)/4, and both photons keep
    the marginal I/2 whatever the analyzer port.
    """
    # amp[k, i, j]: setting k, satellite port i, ground port j (0 = axis, 1 = orthogonal)
    a, b = (np.array([[[math.cos(p), math.sin(p)], [-math.sin(p), math.cos(p)]] for p in phis])
            for phis in zip(*BELL_TEST_SETTINGS))
    amp = np.abs(a @ channel.rotation.matrix @ b.transpose(0, 2, 1)) ** 2 / 2.0
    w = (4.0 * source.fidelity - 1.0) / 3.0 * (1.0 - channel.depolarization)
    probs = w * amp.reshape(-1, 4)[:, [0, 3, 1, 2]] + (1.0 - w) / 4.0  # (i, j) at 2i + j
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
    return tuple(map(tuple, (pair_rate * probs * t + accidental).tolist()))


def simulate_chsh_counts(source, channel, det, seed=0):
    """Poisson (c_pp, c_mm, c_pm, c_mp) per Bell-test setting; setting k draws
    from Philox (seed, k).  Raises ValueError on a mean above POISSON_MEAN_MAX."""
    means = _count_means(source, channel, det)
    bitgen = _philox(seed, 0)
    peak = max(map(max, means))
    if peak > POISSON_MEAN_MAX:
        raise ValueError(f"expected coincidence count {peak:.6g} exceeds the Poisson "
                         f"sampler's limit {POISSON_MEAN_MAX:.6g}")
    rng, counts = np.random.Generator(bitgen), []
    for k, row in enumerate(means):
        if k:
            _rekey(bitgen, seed, k)
        counts.append(tuple(map(rng.poisson, row)))
    return counts


@frozen
class ChshResult:
    """CHSH estimate: the four correlations, S, their errors and the coincidences."""
    correlations: tuple  # four E values
    correlation_errors: tuple  # four sigma_E
    s_value: float
    s_error: float
    total_coincidences: float

    def to_json(self, extra=None):
        return json_text({
            "settings_rad": [list(s) for s in BELL_TEST_SETTINGS],
            "E": list(self.correlations),
            "sigma_E": list(self.correlation_errors),
            "S": self.s_value,
            "sigma_S": self.s_error,
            "total_coincidences": self.total_coincidences,
            **(extra or {}),
        })


def _correlation_from_counts(quad):
    c_pp, c_mm, c_pm, c_mp = (float(c) for c in quad)
    if not all(0.0 <= c < math.inf for c in (c_pp, c_mm, c_pm, c_mp)):
        raise ValueError("coincidence counts must be finite and non-negative")
    same = c_pp + c_mm
    cross = c_pm + c_mp
    n = same + cross
    if n <= 0.0:
        raise ValueError("zero total coincidences at a setting")
    e = (same - cross) / n
    # first-order Poisson propagation (var C = C) collapses to 4 A B / N^3,
    # written so that no intermediate overflows
    var = 4.0 * (same / n) * (cross / n) / n
    return e, math.sqrt(var), n


def estimate_chsh(counts, error_method="propagation"):
    """CHSH estimate from the four Bell-test settings' coincidence quadruples.

    Errors come from first-order Poisson propagation by default; the
    `bootstrap` method instead draws 500 Poisson resamples of each setting's
    same-port and cross-port sums, which behaves better when individual
    counts are nearly zero.  It raises ValueError on a sum above
    POISSON_MEAN_MAX.
    """
    if len(counts) != 4:
        raise ValueError("need counts for exactly four settings")
    per_setting = [_correlation_from_counts(q) for q in counts]
    e_vals = [p[0] for p in per_setting]
    s_value = abs(e_vals[0] - e_vals[1] + e_vals[2] + e_vals[3])
    total = sum(p[2] for p in per_setting)

    if error_method == "propagation":
        e_errs = [p[1] for p in per_setting]
        s_err = math.sqrt(sum(err**2 for err in e_errs))
    elif error_method == "bootstrap":
        # E reads only the same-port and cross-port sums, and a sum of
        # independent Poisson variates is Poisson with the summed mean
        pooled = np.asarray(counts, dtype=float).reshape(4, 2, 2).sum(axis=2)
        peak = pooled.max()
        if peak > POISSON_MEAN_MAX:
            raise ValueError(f"coincidence sum {peak:.6g} exceeds the Poisson "
                             f"sampler's limit {POISSON_MEAN_MAX:.6g}")
        rng = np.random.Generator(_philox(0, 2**32))
        resampled = rng.poisson(pooled, size=(BOOTSTRAP_RESAMPLES, 4, 2))
        same, cross = resampled[..., 0], resampled[..., 1]
        n = same + cross
        e_samples = (same - cross) / np.maximum(n, 1)  # n = 0 only when same = cross = 0
        e_errs = list(np.std(e_samples, axis=0, ddof=1))
        s_boot = np.abs(e_samples[:, 0] - e_samples[:, 1] + e_samples[:, 2] + e_samples[:, 3])
        s_err = float(np.std(s_boot, ddof=1))
    else:
        raise ValueError(f"unknown error method {error_method!r}")

    return ChshResult(tuple(e_vals), tuple(float(x) for x in e_errs), float(s_value),
                      float(s_err), float(total))


def expected_chsh(source, channel, det):
    """S and total coincidences of the full count model, evaluated on means."""
    result = estimate_chsh(_count_means(source, channel, det))
    return result.s_value, result.total_coincidences


def check_targets(s_target, total_target):
    """Raise ValueError unless s_target >= 0 and 0 < total_target < POISSON_MEAN_MAX."""
    if not s_target >= 0.0:
        raise ValueError(f"S target must be non-negative, got {s_target!r}")
    if not 0.0 < total_target < POISSON_MEAN_MAX:
        raise ValueError(f"expected a positive number below {POISSON_MEAN_MAX:.6g}, "
                         f"got {total_target!r}")


def calibrate_bell(source, channel, det, s_target, total_target):
    """Solve for channel depolarization and integration time.

    Sets the effective visibility (via the channel depolarization knob) that
    makes the full count model's expected S equal `s_target`, then scales the
    integration time so expected total coincidences equal `total_target`.
    Each expected E_k is V (1 - p) e_k N_k / (N_k + 4 A_k), with e_k the
    pure-state correlation, N_k the true and A_k the accidental coincidences
    per port pair; neither depends on p, so S(p) = (1 - p) S(0).
    Attributes no physical cause; it is an effective-noise calibration.
    Raises ValueError on targets check_targets refuses, or when the
    calibrated model misses either target by more than 1e-9 relative.
    """
    check_targets(s_target, total_target)
    s_max, _ = expected_chsh(source, replace(channel, depolarization=0.0), det)
    if s_target > s_max:
        raise ValueError(f"target S {s_target} above the model's reach {s_max:.4f}")
    depol = 1.0 - s_target / s_max if s_max > 0.0 else 0.0
    channel = replace(channel, depolarization=depol)

    _, total_now = expected_chsh(source, channel, det)
    det = replace(det, integration_time_s=det.integration_time_s * total_target / total_now)
    s_got, total_got = expected_chsh(source, channel, det)
    # subnormal counts lose the digits the two scalings need
    if not (abs(s_got - s_target) <= 1e-9 * s_target
            and abs(total_got - total_target) <= 1e-9 * total_target):
        raise ValueError(f"calibrated model gives S {s_got:.9g} and {total_got:.9g} "
                         f"coincidences, not {s_target!r} and {total_target!r}")
    return channel, det


# --- counts CSV (one row per setting) ---------------------------------------


COUNTS_FORMAT = (("setting_phi1_rad", float), ("setting_phi2_rad", float), ("c_pp", float),
                 ("c_mm", float), ("c_pm", float), ("c_mp", float))


def counts_to_csv(counts):
    return write_table(COUNTS_FORMAT, (*zip(*BELL_TEST_SETTINGS), *zip(*counts)))


# --- offset-angle fidelity scan ---------------------------------------------


def offset_scan(ground_offsets_deg, sat_offsets_deg, coating, azimuth_deg=30.0,
                elevation_deg=50.0, beta_deg=0.0, zero_point_deg=0.0):
    """Compensated-uplink fidelity of H over (ground, satellite) offset angles.

    The ground offset is added to the scheduled HWP angle; through the HWP's
    factor-of-two lever a ground offset g and satellite analyzer-frame offset
    s leave a residual rotation of 2g + s, so ideal optics give exactly
    cos^2(2g + s).  Returns an array of shape (len(ground), len(satellite)).
    """
    if len(ground_offsets_deg) == 0 or len(sat_offsets_deg) == 0:
        raise ValueError("offset grids must be non-empty")
    check_degrees("ground offset", ground_offsets_deg)
    check_degrees("satellite offset", sat_offsets_deg)
    check_degrees("beta", beta_deg)
    state = PolarizationState.h()
    direction = PointingDirection(azimuth_deg, elevation_deg)
    alpha = compensation_angle(azimuth_deg, elevation_deg, beta_deg, zero_point_deg)
    ground = alpha + np.asarray(ground_offsets_deg, dtype=float)[:, None]
    out = compensated_chain(direction, beta_deg, ground, coating).apply(state).normalized()
    received = rotator(np.radians(np.asarray(sat_offsets_deg, dtype=float))).apply(out)
    return fidelity(received, state)


OFFSET_SCAN_FORMAT = (("ground_offset_deg", float), ("sat_offset_deg", float), ("fidelity", float))


def offset_scan_csv(ground_offsets_deg, sat_offsets_deg, grid):
    """Rows in grid order: ground offset outer, satellite offset inner."""
    ground, sat = np.meshgrid(ground_offsets_deg, sat_offsets_deg, indexing="ij")
    return write_table(OFFSET_SCAN_FORMAT, (ground.ravel(), sat.ravel(), np.ravel(grid)))
