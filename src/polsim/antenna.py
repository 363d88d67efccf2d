"""Transmitting-antenna polarization model.

The antenna is a double off-axis parabolic telescope feeding a two-mirror
periscope scanning head.  The paraboloids see incidence angles below 7 degrees
over the whole aperture, small enough that their s/p response is treated as
polarization-neutral; only the two 45-degree scanning-head mirrors carry a
coating response.

Pointing model: rotating the head in azimuth by theta and in elevation by phi
adds theta + phi to the polarization frame.  The composed Jones element is

    J(theta, phi) = R(phi) @ D @ R(-theta) @ D

with D = diag(r_s, r_p) per mirror, which reduces to the pure rotation
R(theta + phi) for ideal mirrors (r_s = 1, r_p = -1) and couples coating
imperfections direction-dependently otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .frozen import frozen
from .jones import (
    MirrorResponse,
    PolarizationState,
    mirror_element,
    per_to_fidelity,
    measure_per,
    rotator,
)
from .table import write_table

# Vendor-measured power reflectances |r_s|^2 and |r_p|^2 and s/p phase gap (in
# units of pi) of the scanning-head plane mirrors at 780 nm, and the coating
# response built from them.  The CLI's mirror keys default to these numbers.
_MEASURED = (0.999908, 0.998168, 0.9996)
HR_COATING = MirrorResponse.from_powers(_MEASURED[0], _MEASURED[1], _MEASURED[2] * math.pi)


@frozen
class TelescopeGeometry:
    """Paraboloid parameters of the two off-axis telescope mirrors (mm)."""

    primary_focal_mm: float
    primary_semidiameter_mm: float
    secondary_focal_mm: float
    secondary_semidiameter_mm: float


# Design values of the transmitting antenna: primary R=-1625 mm over a 190 mm
# semi-aperture, secondary R=-65 mm over 7.6 mm, both conic -1 (f = |R|/2).
DESIGN_GEOMETRY = TelescopeGeometry(812.5, 190.0, 32.5, 7.6)


@frozen
class PointingDirection:
    """Azimuth in [-180, 180) and elevation in [0, 90], degrees; floats or
    broadcastable arrays for a batch of directions."""

    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        az, el = np.asarray(self.azimuth_deg), np.asarray(self.elevation_deg)
        bad_az = az[~((-180.0 <= az) & (az < 180.0))]
        if bad_az.size:
            raise ValueError(f"azimuth must be in [-180, 180), got {float(bad_az[0])!r}")
        bad_el = el[~((0.0 <= el) & (el <= 90.0))]
        if bad_el.size:
            raise ValueError(f"elevation must be in [0, 90], got {float(bad_el[0])!r}")


def scanning_head_jones(direction, coating):
    """Composed Jones element of the two coated 45-degree scanning mirrors.

    Includes the theta + phi polarization frame rotation that pointing
    introduces; see the module docstring for the composition.
    """
    theta = np.radians(direction.azimuth_deg)
    phi = np.radians(direction.elevation_deg)
    d = mirror_element(coating)
    return rotator(phi) @ d @ rotator(-theta) @ d


@frozen
class PerScanResult:
    """PER scan over (elevation, azimuth, input state) cells."""

    rows: tuple  # of (elevation_deg, azimuth_deg, state_label, per, fidelity)

    @property
    def min_per(self):
        return min(r[3] for r in self.rows)

    @property
    def mean_per(self):
        return sum(r[3] for r in self.rows) / len(self.rows)

    def to_csv(self):
        return write_table(PER_SCAN_FORMAT, zip(*self.rows),
                           f"summary min_per={self.min_per!r} mean_per={self.mean_per!r}")


PER_SCAN_FORMAT = (("elevation_deg", float), ("azimuth_deg", float), ("state_label", str),
                   ("per", float), ("fidelity", float))


# The four test states transmitted during the local antenna scan.
SCAN_STATES = (
    ("H", PolarizationState.h()),
    ("V", PolarizationState.v()),
    ("+", PolarizationState.plus()),
    ("-", PolarizationState.minus()),
)

DEFAULT_SCAN_ELEVATIONS = (30.0, 50.0, 70.0)
DEFAULT_SCAN_AZIMUTHS = (-180.0, -135.0, -90.0, -45.0, 0.0, 45.0, 90.0, 135.0)


def antenna_per_scan(geom, coating, elevations_deg=DEFAULT_SCAN_ELEVATIONS,
                     azimuths_deg=DEFAULT_SCAN_AZIMUTHS):
    """Simulated local PER test: one cell per (elevation, azimuth, state of
    SCAN_STATES).

    The analyzer tracks the known geometric frame rotation, so each cell's
    reference angle is the input state's axis plus theta + phi; what remains
    in the PER is the coating-induced depolarization.  `geom` carries the
    paraboloid mirrors, modeled as polarization-neutral (their incidence
    angles stay below 7 degrees); it does not enter the Jones chain.
    """
    if not len(elevations_deg) or not len(azimuths_deg):
        raise ValueError("scan grids must be non-empty")
    # cells on axes (elevation, azimuth, state), the row order of the table
    el = np.asarray(elevations_deg, dtype=float)[:, None, None]
    az = np.asarray(azimuths_deg, dtype=float)[None, :, None]
    labels, probes = zip(*SCAN_STATES)
    probe = PolarizationState(np.array([p.a_h for p in probes]), np.array([p.a_v for p in probes]))
    out = scanning_head_jones(PointingDirection(az, el), coating).apply(probe).normalized()
    per = measure_per(out, probe.linear_axis() + np.radians(az + el))
    rows = zip(np.broadcast_to(el, per.shape).ravel().tolist(),
               np.broadcast_to(az, per.shape).ravel().tolist(),
               labels * (per.size // len(labels)), per.ravel().tolist(),
               per_to_fidelity(per).ravel().tolist())
    return PerScanResult(tuple(rows))
