"""Motion compensation of the uplink polarization frame by one rotating HWP.

Tracking a satellite rotates the transmitted polarization frame by the
azimuth theta plus the elevation phi; the satellite telescope adds its own
angle beta.  Because a half-wave plate at alpha reflects linear polarization
about its axis (g -> 2 alpha - g), scheduling

    alpha = zero_point + (theta + phi + beta) / 2

cancels the accumulated rotation exactly: the output angle is constant at
2 * zero_point - g_in, whatever the pass geometry does.  The zero point is a
per-installation calibration; the deployed system used 145.8 degrees, and a
simulated chain's is 0 (`calibrate_zero_point`).
Note the H/V basis is restored exactly while diagonal/circular components
come back conjugated - a fixed, known flip absorbed by receiver calibration.

HWP angles are pi-periodic, so emitted angles live in [0, 180) while slew
rates are always computed on the unwrapped series.
"""

from __future__ import annotations

import numpy as np

from .antenna import PointingDirection, scanning_head_jones
from .frozen import frozen
from .jones import PolarizationState, fidelity, hwp, rotator
from .table import check_degrees, json_text, posix_from_iso, write_table

# The deployed installation's empirically determined HWP zero point, degrees.
DEFAULT_ZERO_POINT_DEG = 145.8

# Conservative motorized-rotator slew capability, deg/s; schedule rates above
# this are flagged in the schedule metadata.
DEFAULT_MAX_SLEW_DEG_PER_S = 5.0


def _hwp_command(theta_deg, phi_deg, beta_deg, zero_point_deg):
    """zero + (theta+phi+beta)/2, before the mod-180 reduction."""
    raw = zero_point_deg + (theta_deg + phi_deg + beta_deg) / 2.0
    if not np.isfinite(raw).all():
        raise ValueError(f"HWP command needs finite inputs, got {raw!r}")
    return raw


def compensation_angle(theta_deg, phi_deg, beta_deg, zero_point_deg=DEFAULT_ZERO_POINT_DEG):
    """Scheduled HWP angle zero + (theta+phi+beta)/2, reduced to [0, 180).

    Broadcasts over arrays.
    """
    check_degrees("zero point", zero_point_deg)
    return _hwp_command(theta_deg, phi_deg, beta_deg, zero_point_deg) % 180.0


@frozen
class CompensationSchedule:
    """Per-sample HWP commands for one pass."""

    t_posix: np.ndarray
    angle_deg: np.ndarray  # reduced to [0, 180)
    rate_deg_per_s: np.ndarray  # from the unwrapped series; rate[0] = 0
    zero_point_deg: float
    max_rate_deg_per_s: float
    warnings: tuple

    def to_csv(self):
        return write_table(SCHEDULE_FORMAT, (self.t_posix, self.angle_deg, self.rate_deg_per_s))

    def metadata_json(self):
        return json_text({
            "zero_point_deg": self.zero_point_deg,
            "max_rate_deg_per_s": self.max_rate_deg_per_s,
            "samples": int(len(self.t_posix)),
            "warnings": list(self.warnings),
        })


SCHEDULE_FORMAT = (("t_iso8601", posix_from_iso), ("hwp_deg", float), ("rate_deg_per_s", float))


def check_tracking(zero_point_deg, max_slew_deg_per_s):
    """Raise ValueError unless the zero point is in [-360, 360] degrees and the
    slew limit is positive."""
    check_degrees("zero point", zero_point_deg)
    if not max_slew_deg_per_s > 0.0:
        raise ValueError(f"slew limit must be positive, got {max_slew_deg_per_s!r}")


def _unwrap_deg(series):
    """np.unwrap(series, period=360.0) bit for bit; with no step of 180 degrees
    or more, that only adds +0.0 past the first entry."""
    if (np.abs(np.diff(series)) < 180.0).all():
        return np.concatenate((series[:1], series[1:] + 0.0))
    return np.unwrap(series, period=360.0)


def schedule_from_pass(pass_profile, zero_point_deg=DEFAULT_ZERO_POINT_DEG,
                       max_slew_deg_per_s=DEFAULT_MAX_SLEW_DEG_PER_S):
    """Compensation schedule for a pass, with slew-rate bookkeeping.

    Azimuth and beta are unwrapped before the formula so the rate series sees
    no artificial 360-degree seams; the emitted angle is reduced mod 180
    afterwards.  A rate above `max_slew_deg_per_s` is recorded as a warning
    (the schedule is still produced).
    """
    check_tracking(zero_point_deg, max_slew_deg_per_s)
    az, beta = _unwrap_deg(pass_profile.azimuth_deg), _unwrap_deg(pass_profile.beta_deg)
    raw = _hwp_command(az, pass_profile.elevation_deg, beta, zero_point_deg)

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
    return CompensationSchedule(pass_profile.t_posix.copy(), raw % 180.0, rate,
                                float(zero_point_deg), max_rate, tuple(warnings))


def compensated_chain(direction, beta_deg, hwp_angle_deg, coating):
    """Jones element: antenna at (az, el), frame rotation beta, then the HWP.

    Angles may be arrays (with `direction` a batch); they broadcast.
    """
    return (
        hwp(np.radians(hwp_angle_deg))
        @ rotator(np.radians(beta_deg))
        @ scanning_head_jones(direction, coating)
    )


def calibrate_zero_point(coating):
    """Simulated zero-point determination, mirroring the deployed procedure.

    Sends H through the chain at the reference direction (azimuth 0,
    elevation 0, beta 0), hwp(z) @ D @ D, and returns the HWP angle z in
    [0, 90) degrees that maximizes the fidelity of what comes back (turning
    a half-wave plate by 90 degrees only flips the global phase).  With
    v = D D H normalized, <H|hwp(z)|v> = A cos 2z + B sin 2z for A = v0 and
    B = v1, so the fidelity is maximal at 4z = atan2(2 Re(A* B), |A|^2 - |B|^2).
    At the reference direction D D = diag(r_s^2, r_p^2), so v is H up to a
    phase, B = 0 and z = 0 for every coating.
    """
    return 0.0


def verify_compensation(pass_profile, coating, zero_point_deg=0.0):
    """End-to-end fidelity of H through the compensated chain at every pass sample.

    With ideal mirrors the cancellation is exact (fidelity 1 to rounding).
    The default zero point is the simulated chain's own (`calibrate_zero_point`).
    """
    state = PolarizationState.h()
    hwp_angles_deg = schedule_from_pass(pass_profile, zero_point_deg).angle_deg

    az = (pass_profile.azimuth_deg + 180.0) % 360.0 - 180.0
    chain = compensated_chain(PointingDirection(az, pass_profile.elevation_deg),
                              pass_profile.beta_deg, hwp_angles_deg, coating)
    return fidelity(chain.apply(state).normalized(), state)
