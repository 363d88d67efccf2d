"""Motion compensation of the uplink polarization frame by one rotating HWP.

Tracking a satellite rotates the transmitted polarization frame by the
azimuth theta plus the elevation phi; the satellite telescope adds its own
angle beta.  Because a half-wave plate at alpha reflects linear polarization
about its axis (g -> 2 alpha - g), scheduling

    alpha = zero_point + (theta + phi + beta) / 2

cancels the accumulated rotation exactly: the output angle is constant at
2 * zero_point - g_in, whatever the pass geometry does.  The zero point is a
per-installation calibration; the deployed system used 145.8 degrees, a
simulated chain calibrates its own in closed form (`calibrate_zero_point`).
Note the H/V basis is restored exactly while diagonal/circular components
come back conjugated - a fixed, known flip absorbed by receiver calibration.

HWP angles are pi-periodic, so emitted angles live in [0, 180) while slew
rates are always computed on the unwrapped series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import PointingDirection, scanning_head_jones
from .jones import PolarizationState, fidelity, hwp, rotator
from .table import json_text, posix_from_iso, write_table

# The deployed installation's empirically determined HWP zero point, degrees.
DEFAULT_ZERO_POINT_DEG = 145.8

# Conservative motorized-rotator slew capability, deg/s; schedule rates above
# this are flagged in the schedule metadata.
DEFAULT_MAX_SLEW_DEG_PER_S = 5.0

# The zero-point fidelity is a quadratic form in (cos 2z, sin 2z); below this
# anisotropy, relative to its trace, every z is optimal.
_ISOTROPIC_RTOL = 1e-13


def compensation_angle(theta_deg, phi_deg, beta_deg, zero_point_deg=DEFAULT_ZERO_POINT_DEG,
                       sign=1):
    """Scheduled HWP angle zero + sign*(theta+phi+beta)/2, reduced to [0, 180).

    `sign` flips the tracking sense for installations whose mirror chain
    rotates the frame the other way; +1 is the deployed sense.
    """
    for v in (theta_deg, phi_deg, beta_deg, zero_point_deg):
        if not math.isfinite(v):
            raise ValueError(f"compensation_angle needs finite inputs, got {v!r}")
    return (zero_point_deg + sign * (theta_deg + phi_deg + beta_deg) / 2.0) % 180.0


@dataclass(frozen=True)
class CompensationSchedule:
    """Per-sample HWP commands for one pass."""

    t_posix: np.ndarray
    angle_deg: np.ndarray  # reduced to [0, 180)
    rate_deg_per_s: np.ndarray  # from the unwrapped series; rate[0] = 0
    zero_point_deg: float
    sign: int
    max_rate_deg_per_s: float
    warnings: tuple

    def to_csv(self):
        return write_table(SCHEDULE_FORMAT, (self.t_posix, self.angle_deg, self.rate_deg_per_s))

    def metadata(self):
        return {
            "zero_point_deg": self.zero_point_deg,
            "sign": self.sign,
            "max_rate_deg_per_s": self.max_rate_deg_per_s,
            "samples": int(len(self.t_posix)),
            "warnings": list(self.warnings),
        }

    def metadata_json(self):
        return json_text(self.metadata())


SCHEDULE_FORMAT = (("t_iso8601", posix_from_iso), ("hwp_deg", float), ("rate_deg_per_s", float))


def check_tracking(sign, max_slew_deg_per_s):
    """Raise ValueError unless `sign` is 1 or -1 and the slew limit is positive."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    if not max_slew_deg_per_s > 0.0:
        raise ValueError(f"slew limit must be positive, got {max_slew_deg_per_s!r}")


def schedule_from_pass(pass_profile, zero_point_deg=DEFAULT_ZERO_POINT_DEG, sign=1,
                       max_slew_deg_per_s=DEFAULT_MAX_SLEW_DEG_PER_S):
    """Compensation schedule for a pass, with slew-rate bookkeeping.

    Azimuth and beta are unwrapped before the formula so the rate series sees
    no artificial 360-degree seams; the emitted angle is reduced mod 180
    afterwards.  A rate above `max_slew_deg_per_s` is recorded as a warning
    (the schedule is still produced).
    """
    check_tracking(sign, max_slew_deg_per_s)
    az = np.unwrap(pass_profile.azimuth_deg, period=360.0)
    beta = np.unwrap(pass_profile.beta_deg, period=360.0)
    raw = zero_point_deg + sign * (az + pass_profile.elevation_deg + beta) / 2.0

    dt = np.diff(pass_profile.t_posix)
    rate = np.concatenate([[0.0], np.diff(raw) / dt])
    max_rate = float(np.max(np.abs(rate)))

    warnings = []
    if max_rate > max_slew_deg_per_s:
        idx = int(np.argmax(np.abs(rate)))
        warnings.append(
            f"max rate {max_rate:.4f} deg/s at sample {idx} exceeds the "
            f"{max_slew_deg_per_s:.4f} deg/s slew limit"
        )
    return CompensationSchedule(
        t_posix=pass_profile.t_posix.copy(),
        angle_deg=raw % 180.0,
        rate_deg_per_s=rate,
        zero_point_deg=float(zero_point_deg),
        sign=int(sign),
        max_rate_deg_per_s=max_rate,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class QuantizationError:
    """Both readings of the HWP-accuracy error figure.

    `rotation_rad` expresses the plate accuracy itself in radians (0.01 deg is
    1.745e-4, about 0.017%); `infidelity` is the resulting worst-case state
    infidelity sin^2(2 * accuracy), which for the same accuracy is ~1.2e-7.
    """

    rotation_rad: float
    infidelity: float


def quantization_error(hwp_accuracy_deg):
    if hwp_accuracy_deg < 0.0:
        raise ValueError("accuracy must be non-negative")
    acc = math.radians(hwp_accuracy_deg)
    return QuantizationError(rotation_rad=acc, infidelity=math.sin(2.0 * acc) ** 2)


def compensated_chain(direction, beta_deg, hwp_angle_deg, coating):
    """Jones element: antenna at (az, el), frame rotation beta, then the HWP.

    Angles may be arrays (with `direction` a batch); they broadcast.
    """
    return (
        hwp(np.radians(hwp_angle_deg))
        @ rotator(np.radians(beta_deg))
        @ scanning_head_jones(direction, coating)
    )


def calibrate_zero_point(coating, state=None):
    """Simulated zero-point determination, mirroring the deployed procedure.

    Sends `state` s (default H) through the chain at the reference direction
    (azimuth 0, elevation 0, beta 0), hwp(z) @ D @ D, and returns the HWP
    angle z that maximizes the fidelity of what comes back.  With v = D D s
    normalized, <s|hwp(z)|v> = A cos 2z + B sin 2z for A = s0* v0 - s1* v1
    and B = s0* v1 + s1* v0, so the fidelity is u^T M u in u = (cos 2z, sin 2z)
    with M = [[|A|^2, Re(A* B)], [Re(A* B), |B|^2]], and its top eigenvector
    gives 4z = atan2(2 Re(A* B), |A|^2 - |B|^2).

    Turning a half-wave plate by 90 degrees only flips the global phase, so z
    is returned in [0, 90) degrees; it is 0 when M is proportional to the
    identity, where every z is optimal.
    """
    s = PolarizationState.h() if state is None else state
    if not s.is_normalized():
        raise ValueError("calibration requires a normalized state")
    v = scanning_head_jones(PointingDirection(0.0, 0.0), coating).apply(s).normalized()
    a = np.conj(s.a_h) * v.a_h - np.conj(s.a_v) * v.a_v
    b = np.conj(s.a_h) * v.a_v + np.conj(s.a_v) * v.a_h
    diag, off = abs(a) ** 2 - abs(b) ** 2, 2.0 * (np.conj(a) * b).real
    if math.hypot(diag, off) <= _ISOTROPIC_RTOL * (abs(a) ** 2 + abs(b) ** 2):
        return 0.0
    zero = math.degrees(0.25 * math.atan2(off, diag)) % 90.0
    return zero if zero < 90.0 else 0.0


def verify_compensation(pass_profile, coating, state=None,
                        zero_point_deg=None, sign=1, hwp_angles_deg=None):
    """End-to-end fidelity of the compensated chain at every pass sample.

    With ideal mirrors the cancellation is exact (fidelity 1 to rounding).
    `zero_point_deg=None` calibrates the simulated chain's own zero point.
    Passing `hwp_angles_deg` overrides the schedule (e.g. a constant array to
    model a disabled compensator).
    """
    if state is None:
        state = PolarizationState.h()
    if zero_point_deg is None:
        zero_point_deg = calibrate_zero_point(coating, state)
    if hwp_angles_deg is None:
        hwp_angles_deg = schedule_from_pass(pass_profile, zero_point_deg, sign).angle_deg

    az = (pass_profile.azimuth_deg + 180.0) % 360.0 - 180.0
    chain = compensated_chain(PointingDirection(az, pass_profile.elevation_deg),
                              pass_profile.beta_deg, hwp_angles_deg, coating)
    return fidelity(chain.apply(state).normalized(), state)
