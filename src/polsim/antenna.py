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
from dataclasses import dataclass

import numpy as np

from .jones import (
    PER_CAP,
    MirrorResponse,
    PolarizationState,
    mirror_element,
    per_to_fidelity,
    measure_per,
    rotator,
)
from .table import write_table

# Coating response of the scanning-head plane mirrors at 780 nm, built from
# the vendor-measured power reflectances and s/p phase gap.
HR_COATING = MirrorResponse.from_powers(0.999908, 0.998168, 0.9996 * math.pi)


@dataclass(frozen=True)
class TelescopeGeometry:
    """Paraboloid parameters of the two off-axis telescope mirrors (mm)."""

    primary_focal_mm: float
    primary_semidiameter_mm: float
    secondary_focal_mm: float
    secondary_semidiameter_mm: float
    conic: float = -1.0

    def __post_init__(self):
        for name in (
            "primary_focal_mm",
            "primary_semidiameter_mm",
            "secondary_focal_mm",
            "secondary_semidiameter_mm",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_radii(cls, primary_radius_mm, primary_semidiameter_mm,
                   secondary_radius_mm, secondary_semidiameter_mm, conic=-1.0):
        """Build from vertex radii of curvature (f = |R|/2 for a paraboloid)."""
        return cls(
            abs(primary_radius_mm) / 2.0,
            primary_semidiameter_mm,
            abs(secondary_radius_mm) / 2.0,
            secondary_semidiameter_mm,
            conic,
        )


# Design values of the transmitting antenna: primary R=-1625 mm over a 190 mm
# semi-aperture, secondary R=-65 mm over 7.6 mm, both conic -1.
DESIGN_GEOMETRY = TelescopeGeometry.from_radii(-1625.0, 190.0, -65.0, 7.6)


@dataclass(frozen=True)
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


def parabola_incidence_angle(focal_mm, ray_height_mm, semidiameter_mm=None):
    """Incidence angle of an axis-parallel ray on a paraboloid, atan(h / 2f).

    The surface z = r^2 / (4 f) has slope h / (2 f) at ray height h, which is
    also the angle between the incoming ray and the surface normal.
    """
    if ray_height_mm < 0.0:
        raise ValueError("ray height must be non-negative")
    if semidiameter_mm is not None and ray_height_mm > semidiameter_mm:
        raise ValueError(
            f"ray height {ray_height_mm!r} outside the {semidiameter_mm!r} mm aperture"
        )
    return math.atan2(ray_height_mm, 2.0 * focal_mm)


def max_incidence_angle(geom):
    """Largest paraboloid incidence angle over both apertures."""
    return max(
        parabola_incidence_angle(geom.primary_focal_mm, geom.primary_semidiameter_mm),
        parabola_incidence_angle(geom.secondary_focal_mm, geom.secondary_semidiameter_mm),
    )


def scanning_head_jones(direction, coating):
    """Composed Jones element of the two coated 45-degree scanning mirrors.

    Includes the theta + phi polarization frame rotation that pointing
    introduces; see the module docstring for the composition.
    """
    theta = np.radians(direction.azimuth_deg)
    phi = np.radians(direction.elevation_deg)
    d = mirror_element(coating)
    return rotator(phi) @ d @ rotator(-theta) @ d


@dataclass(frozen=True)
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
DEFAULT_SCAN_STATES = (
    ("H", PolarizationState.h()),
    ("V", PolarizationState.v()),
    ("+", PolarizationState.plus()),
    ("-", PolarizationState.minus()),
)

DEFAULT_SCAN_ELEVATIONS = (30.0, 50.0, 70.0)
DEFAULT_SCAN_AZIMUTHS = (-180.0, -135.0, -90.0, -45.0, 0.0, 45.0, 90.0, 135.0)


def antenna_per_scan(
    geom,
    coating,
    elevations_deg=DEFAULT_SCAN_ELEVATIONS,
    azimuths_deg=DEFAULT_SCAN_AZIMUTHS,
    states=DEFAULT_SCAN_STATES,
    cap=PER_CAP,
):
    """Simulated local PER test: one cell per (elevation, azimuth, state).

    The analyzer tracks the known geometric frame rotation, so each cell's
    reference angle is the input state's axis plus theta + phi; what remains
    in the PER is the coating-induced depolarization.  `geom` carries the
    paraboloid mirrors, modeled as polarization-neutral (their incidence
    angles stay below 7 degrees); it does not enter the Jones chain.
    """
    if not len(elevations_deg) or not len(azimuths_deg) or not states:
        raise ValueError("scan grids must be non-empty")
    if not 0.0 < cap < math.inf:
        raise ValueError(f"PER cap must be finite and positive, got {cap!r}")
    # cells on axes (elevation, azimuth, state), the row order of the table
    el = np.asarray(elevations_deg, dtype=float)[:, None, None]
    az = np.asarray(azimuths_deg, dtype=float)[None, :, None]
    labels, probes = zip(*states)
    probe = PolarizationState(np.array([p.a_h for p in probes]), np.array([p.a_v for p in probes]))
    axes = np.array([p.linear_axis() for p in probes])
    out = scanning_head_jones(PointingDirection(az, el), coating).apply(probe).normalized()
    per = measure_per(out, axes + np.radians(az + el), cap=cap)
    rows = zip(np.broadcast_to(el, per.shape).ravel().tolist(),
               np.broadcast_to(az, per.shape).ravel().tolist(),
               labels * (per.size // len(labels)), per.ravel().tolist(),
               per_to_fidelity(per).ravel().tolist())
    return PerScanResult(tuple(rows))
