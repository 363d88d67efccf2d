"""Two-body orbit propagation and ground-station pass geometry.

Desk-scale fidelity on purpose: Keplerian two-body motion from the TLE mean
elements (no SGP4 perturbations), a spherical Earth, UTC timestamps with leap
seconds ignored, and geodetic station latitude treated as geocentric.  Pass
shapes and durations are insensitive to all of that at the cadence this
package works at; externally computed ephemerides can be injected through the
pass-CSV reader when higher fidelity is needed.

Angle conventions: azimuth from north through east in [0, 360); elevation
above the local horizon.  The satellite telescope angle beta is the signed
in-plane gimbal angle of a nadir-mounted telescope tracking the station:
atan2(along-track LOS component, nadir LOS component).  It is continuous and
antisymmetric about culmination for a zenith-crossing pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .table import posix_from_iso, read_table, write_table

MU_EARTH_KM3_S2 = 398600.4418
R_EARTH_KM = 6371.0
SECONDS_PER_DAY = 86400.0

# Two-body elements drift from reality; refuse to extrapolate past this.
MAX_PROPAGATION_DAYS = 7.0

# Largest time grid extract_passes builds (grid plus elevation column: 80 MB),
# the 7-day horizon at a 0.121 s step.
MAX_GRID_SAMPLES = 5_000_000


class ArgumentError(ValueError):
    """An out-of-range argument; `name` is the parameter that carried it."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


class WindowError(ArgumentError):
    """A time window that is empty or past the propagation horizon."""

    def __init__(self, message, name="t_end"):
        super().__init__(name, message)


class GridSizeError(WindowError):
    """A time window sampled more finely than MAX_GRID_SAMPLES allows."""


def to_posix(t):
    """Accept a POSIX-seconds float or a datetime (naive = UTC)."""
    if isinstance(t, datetime):
        if t.tzinfo is None:
            t = t.replace(tzinfo=timezone.utc)
        return t.timestamp()
    return float(t)


@dataclass(frozen=True)
class GroundStation:
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude must be in [-90, 90], got {self.latitude_deg!r}")
        if not self.altitude_m > -500.0:
            raise ValueError(f"altitude must exceed -500 m, got {self.altitude_m!r}")


# Transmitting ground station at Ngari: 32d19'33.07" N, 80d01'34.18" E, 5047 m.
NGARI_STATION = GroundStation(32.3258527778, 80.0261611111, 5047.0)


def solve_kepler(mean_anomaly, eccentricity, tol=1e-13, max_iter=60):
    """Eccentric anomaly E with E - e sin E = M, by Newton on every M at once.

    Takes a scalar or an array of mean anomalies and returns a float or an
    array.  Iterates until every Newton step is below `tol`, then checks the
    residual contract |E - e sin E - M| < 1e-12 on M reduced to [0, 2 pi).
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {eccentricity!r}")
    mean = np.asarray(mean_anomaly, dtype=float)
    m = np.remainder(mean, 2.0 * np.pi)
    e = eccentricity
    ecc_anom = m.copy() if e < 0.8 else np.full_like(m, np.pi)
    for _ in range(max_iter):
        step = (ecc_anom - e * np.sin(ecc_anom) - m) / (1.0 - e * np.cos(ecc_anom))
        ecc_anom = ecc_anom - step
        if np.all(np.abs(step) < tol):
            break
    residual = np.max(np.abs(ecc_anom - e * np.sin(ecc_anom) - m), initial=0.0)
    if not residual < 1e-12:
        raise ValueError(f"Kepler solve did not converge: residual {residual!r}")
    ecc_anom = ecc_anom + (mean - m)
    return float(ecc_anom) if ecc_anom.ndim == 0 else ecc_anom


def _perifocal_to_eci(raan_deg, incl_deg, argp_deg):
    """Rotation matrix PQW -> ECI."""
    om = math.radians(raan_deg)
    inc = math.radians(incl_deg)
    w = math.radians(argp_deg)
    co, so = math.cos(om), math.sin(om)
    ci, si = math.cos(inc), math.sin(inc)
    cw, sw = math.cos(w), math.sin(w)
    return np.array(
        [
            [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
            [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
            [sw * si, cw * si, ci],
        ]
    )


def _check_horizon(rec, t_posix):
    t_posix = np.asarray(t_posix, dtype=float)
    span = np.max(np.abs(t_posix - rec.epoch_posix), initial=0.0)
    if span > MAX_PROPAGATION_DAYS * SECONDS_PER_DAY:
        raise WindowError(
            f"propagation {span / SECONDS_PER_DAY:.2f} days from epoch exceeds the "
            f"{MAX_PROPAGATION_DAYS:.0f}-day two-body accuracy horizon"
        )


def propagate_state(rec, t):
    """ECI position (km) and velocity (km/s) on the record's Kepler ellipse.

    Vectorized over t: scalar t gives shape-(3,) arrays, an array of times
    gives shape (n, 3).
    """
    t_posix = np.asarray(t)
    if t_posix.dtype.kind not in "if":  # one or many datetimes
        t_posix = np.vectorize(to_posix, otypes=[float])(t_posix)
    t_posix = t_posix.astype(float)
    scalar = t_posix.ndim == 0
    _check_horizon(rec, t_posix)

    n_rad = rec.mean_motion_rev_per_day * 2.0 * math.pi / SECONDS_PER_DAY
    a = (MU_EARTH_KM3_S2 / n_rad**2) ** (1.0 / 3.0)
    e = rec.eccentricity
    m0 = math.radians(rec.mean_anomaly_deg)
    m = m0 + n_rad * (np.atleast_1d(t_posix) - rec.epoch_posix)
    ecc = solve_kepler(m, e)

    cos_e, sin_e = np.cos(ecc), np.sin(ecc)
    b_fac = math.sqrt(1.0 - e * e)
    x_pqw = a * (cos_e - e)
    y_pqw = a * b_fac * sin_e
    # dE/dt = n / (1 - e cos E)
    e_dot = n_rad / (1.0 - e * cos_e)
    vx_pqw = -a * sin_e * e_dot
    vy_pqw = a * b_fac * cos_e * e_dot

    rot = _perifocal_to_eci(rec.raan_deg, rec.inclination_deg, rec.arg_perigee_deg)
    pos = np.stack([x_pqw, y_pqw, np.zeros_like(x_pqw)], axis=-1) @ rot.T
    vel = np.stack([vx_pqw, vy_pqw, np.zeros_like(vx_pqw)], axis=-1) @ rot.T
    if scalar:
        return pos[0], vel[0]
    return pos, vel


def propagate(rec, t):
    """ECI position (km) at time t."""
    return propagate_state(rec, t)[0]


def gmst_rad(t_posix):
    """Greenwich mean sidereal time, radians (IAU 1982-style polynomial)."""
    jd = np.asarray(t_posix, dtype=float) / SECONDS_PER_DAY + 2440587.5
    d = jd - 2451545.0
    t_cent = d / 36525.0
    gmst_deg = (
        280.46061837
        + 360.98564736629 * d
        + 0.000387933 * t_cent**2
        - t_cent**3 / 38710000.0
    )
    return np.deg2rad(np.remainder(gmst_deg, 360.0))


def station_ecef(station):
    """Station ECEF position, km (spherical Earth)."""
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    r = R_EARTH_KM + station.altitude_m / 1000.0
    return np.array(
        [r * math.cos(lat) * math.cos(lon), r * math.cos(lat) * math.sin(lon), r * math.sin(lat)]
    )


def eci_to_ecef(vec_eci, t_posix):
    g = gmst_rad(t_posix)
    c, s = np.cos(g), np.sin(g)
    x, y, z = np.moveaxis(np.asarray(vec_eci, dtype=float), -1, 0)
    return np.stack([c * x + s * y, -s * x + c * y, z], axis=-1)


def ecef_to_eci(vec_ecef, t_posix):
    g = gmst_rad(t_posix)
    c, s = np.cos(g), np.sin(g)
    x, y, z = np.moveaxis(np.asarray(vec_ecef, dtype=float), -1, 0)
    return np.stack([c * x - s * y, s * x + c * y, z], axis=-1)


def _enu_basis(station):
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    east = np.array([-math.sin(lon), math.cos(lon), 0.0])
    north = np.array(
        [-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon), math.cos(lat)]
    )
    up = np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])
    return east, north, up


def topocentric(sat_eci_km, station, t):
    """(azimuth_deg, elevation_deg, range_km) of a satellite from a station.

    Floats for one ECI position, arrays for positions (n, 3) at n times.
    Azimuth is undefined at the zenith and returned there as 0.
    """
    t_posix = to_posix(t) if isinstance(t, datetime) else np.asarray(t, dtype=float)
    sat_ecef = eci_to_ecef(np.asarray(sat_eci_km, dtype=float), t_posix)
    rel = sat_ecef - station_ecef(station)
    east, north, up = _enu_basis(station)
    e, n, u = rel @ east, rel @ north, rel @ up
    horizontal = np.hypot(e, n)
    rng = np.hypot(horizontal, u)
    el = np.degrees(np.arctan2(u, horizontal))
    az = np.where(horizontal < 1e-9, 0.0, np.degrees(np.arctan2(e, n)) % 360.0)
    if rng.ndim == 0:
        return float(az), float(el), float(rng)
    return az, el, rng


@dataclass(frozen=True)
class PassProfile:
    """One satellite passage: time series of azimuth, elevation, beta."""

    t_posix: np.ndarray
    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    beta_deg: np.ndarray

    def __post_init__(self):
        for name in ("t_posix", "azimuth_deg", "elevation_deg", "beta_deg"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.t_posix)
        if n < 2:
            raise ValueError("a pass needs at least two samples")
        if any(len(getattr(self, f)) != n for f in ("azimuth_deg", "elevation_deg", "beta_deg")):
            raise ValueError("pass sample arrays must share one length")
        if not all(np.all(np.isfinite(getattr(self, f))) for f in self.__dataclass_fields__):
            raise ValueError("pass samples must be finite")
        if not np.all(np.diff(self.t_posix) > 0.0):
            raise ValueError("pass timestamps must be strictly increasing")

    @property
    def duration_s(self):
        return float(self.t_posix[-1] - self.t_posix[0])

    @property
    def max_elevation_deg(self):
        return float(np.max(self.elevation_deg))

    def to_csv(self):
        return write_table(PASS_FORMAT, (self.t_posix, self.azimuth_deg, self.elevation_deg,
                                         self.beta_deg))


PASS_FORMAT = (("t_iso8601", posix_from_iso), ("az_deg", float), ("el_deg", float),
               ("beta_deg", float))


def parse_pass_csv(text):
    """Read a pass CSV `t_iso8601, az_deg, el_deg[, beta_deg]`.

    A missing beta column means no satellite-telescope rotation (zeros);
    a present one is taken verbatim (injected-series mode).
    """
    rows = read_table(text, PASS_FORMAT, fill=(0.0,))
    return PassProfile(*np.array(rows, dtype=float).reshape(-1, 4).T)


def _beta_from_state(pos, vel, station, t_posix):
    """Satellite telescope angle per sample, degrees, from ECI states: the
    signed in-plane off-nadir angle of the station line of sight in the
    satellite's nadir-pointing frame (positive when the station is ahead
    along track).
    """
    los = ecef_to_eci(np.broadcast_to(station_ecef(station), pos.shape), t_posix) - pos
    r_hat = pos / np.linalg.norm(pos, axis=-1, keepdims=True)
    along = vel - np.sum(vel * r_hat, axis=-1, keepdims=True) * r_hat
    along = along / np.linalg.norm(along, axis=-1, keepdims=True)
    return np.degrees(np.arctan2(np.sum(los * along, axis=-1), -np.sum(los * r_hat, axis=-1)))


# Bound on d(gmst)/dt from gmst_rad's polynomial within a century of J2000.
EARTH_RATE_RAD_S = math.radians(360.98564736629 + 0.000776 / 36525.0) / SECONDS_PER_DAY
SCAN_SWING_DEG = 30.0  # elevation the rate bound may sweep between coarse samples
CROSSING_TOL_S = 1e-6


def elevation_rate_bound(rec, station):
    """Upper bound R on |d elevation / dt|, rad/s; infinite if r_p <= r_s.

    The line of sight turns no faster than the satellite's Earth-fixed speed,
    at most v_p + w_E r_a, over the shortest possible range r_p - r_s.
    """
    n_rad = rec.mean_motion_rev_per_day * 2.0 * math.pi / SECONDS_PER_DAY
    a = (MU_EARTH_KM3_S2 / n_rad**2) ** (1.0 / 3.0)
    r_p, r_a = a * (1.0 - rec.eccentricity), a * (1.0 + rec.eccentricity)
    r_s = R_EARTH_KM + station.altitude_m / 1000.0
    if r_p <= r_s:
        return math.inf
    v_p = math.sqrt(MU_EARTH_KM3_S2 * (2.0 / r_p - 1.0 / a))  # vis-viva
    return (v_p + EARTH_RATE_RAD_S * r_a) / (r_p - r_s)


def extract_passes(rec, station, t_start, t_end, threshold_deg=10.0, step_s=1.0):
    """All complete passes with elevation >= threshold inside [t_start, t_end].

    Interior samples sit on the step grid; the first and last sample of each
    pass are refined to the threshold crossing itself, to CROSSING_TOL_S.
    Passes clipped by the window edges (already up at t_start, still up at
    t_end) are dropped since their true rise/set times are unknown.  The scan
    takes every k-th sample, k from elevation_rate_bound, and fills in only
    the stretches where the bound lets the elevation reach the threshold.
    """
    t0, t1 = to_posix(t_start), to_posix(t_end)
    if not t0 < t1:
        raise WindowError("empty time window")
    if not 0.0 <= threshold_deg < 90.0:
        raise ArgumentError("threshold_deg", f"threshold must be in [0, 90), got {threshold_deg!r}")
    if not 0.0 < step_s < math.inf:
        raise ArgumentError("step_s", f"step_s must be finite and positive, got {step_s!r}")
    _check_horizon(rec, [t0, t1])
    if (t1 - t0) / step_s >= MAX_GRID_SAMPLES:
        raise GridSizeError(
            f"a {t1 - t0:.6g} s window at step_s {step_s!r} needs more than "
            f"{MAX_GRID_SAMPLES} samples",
            "step_s",
        )

    def elevation(t):
        return topocentric(propagate(rec, t), station, t)[1]

    grid = np.arange(t0, t1 + step_s / 2.0, step_s)
    rate_deg_s = math.degrees(elevation_rate_bound(rec, station))
    k = max(1, int(SCAN_SWING_DEG / (rate_deg_s * step_s)))
    coarse = np.append(np.arange(0, len(grid) - 1, k), len(grid) - 1)
    el = np.full(len(grid), -np.inf)  # samples left unevaluated are below threshold
    el[coarse] = elevation(grid[coarse])
    peak = (el[coarse[:-1]] + el[coarse[1:]] + rate_deg_s * np.diff(grid[coarse])) / 2.0
    fine = np.append(np.repeat(peak >= threshold_deg, np.diff(coarse)), False)
    fine[coarse] = False
    el[fine] = elevation(grid[fine])

    up = el >= threshold_deg
    edges = np.diff(up.astype(np.int8))
    # last and first sample of each run; drop runs clipped by the window edges
    fall = np.flatnonzero(edges == -1)[int(up[0]):]
    rise = (np.flatnonzero(edges == 1) + 1)[:len(fall)]
    if not len(rise):
        return []

    # bisect all crossings at once; `below` stays under the threshold
    below = grid[np.r_[rise - 1, fall + 1]]
    above = grid[np.r_[rise, fall]]
    for _ in range(max(0, math.ceil(math.log2(step_s / CROSSING_TOL_S)))):
        mid = 0.5 * (below + above)
        over = elevation(mid) > threshold_deg
        above, below = np.where(over, mid, above), np.where(over, below, mid)
    t_rise, t_set = np.split(0.5 * (below + above), 2)

    segments = []
    for i, j, tr, ts in zip(rise, fall, t_rise, t_set):
        inner = grid[i:j + 1]
        segments.append(np.r_[tr, inner[(inner > tr) & (inner < ts)], ts])
    times = np.concatenate(segments)
    pos, vel = propagate_state(rec, times)
    az, elev, _ = topocentric(pos, station, times)
    beta = _beta_from_state(pos, vel, station, times)
    cuts = np.cumsum([len(s) for s in segments[:-1]])
    columns = (np.split(x, cuts) for x in (times, az, elev, beta))
    return [PassProfile(*cols) for cols in zip(*columns)]
