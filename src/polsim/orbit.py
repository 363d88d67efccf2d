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

import numpy as np

from .frozen import frozen
from .table import ParseError, check_degrees, posix_from_iso, read_table, write_table

MU_EARTH_KM3_S2 = 398600.4418
R_EARTH_KM = 6371.0
SECONDS_PER_DAY = 86400.0

# Two-body elements drift from reality; refuse to extrapolate past this.
MAX_PROPAGATION_DAYS = 7.0

# Most samples extract_passes' step grid may hold (the 7-day horizon at 0.121 s):
# it is never built, but with no rate bound the scan evaluates every sample at once.
MAX_GRID_SAMPLES = 5_000_000

# solve_kepler stops once every Newton step is below this, within this many steps.
KEPLER_STEP_TOL = 1e-13
KEPLER_MAX_ITER = 60


@frozen
class GroundStation:
    """Ground site on a spherical Earth: latitude, longitude (degrees), altitude (m)."""
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude must be in [-90, 90], got {self.latitude_deg!r}")
        check_degrees("longitude", self.longitude_deg)
        if not self.altitude_m > -500.0:
            raise ValueError(f"altitude must exceed -500 m, got {self.altitude_m!r}")


# Transmitting ground station at Ngari: 32d19'33.07" N, 80d01'34.18" E, 5047 m.
NGARI_STATION = GroundStation(32.3258527778, 80.0261611111, 5047.0)


def solve_kepler(mean_anomaly, eccentricity):
    """Eccentric anomaly E with E - e sin E = M, by Newton on every M at once.

    Takes a scalar or an array of mean anomalies and returns a float or an
    array.  Iterates until every Newton step is below KEPLER_STEP_TOL, then
    checks the residual contract |E - e sin E - M| < 1e-12 on M reduced to
    [0, 2 pi).
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {eccentricity!r}")
    mean = np.asarray(mean_anomaly, dtype=float)
    m = np.remainder(mean, 2.0 * np.pi)
    e = eccentricity
    ecc_anom = m if e < 0.8 else np.full_like(m, np.pi)
    for _ in range(KEPLER_MAX_ITER):
        step = (ecc_anom - e * np.sin(ecc_anom) - m) / (1.0 - e * np.cos(ecc_anom))
        ecc_anom = ecc_anom - step
        if (np.abs(step) < KEPLER_STEP_TOL).all():
            break
    residual = np.abs(ecc_anom - e * np.sin(ecc_anom) - m).max(initial=0.0)
    if not residual < 1e-12:
        raise ValueError(f"Kepler solve did not converge: residual {residual!r}")
    ecc_anom = ecc_anom + (mean - m)
    return float(ecc_anom) if ecc_anom.ndim == 0 else ecc_anom


def _ellipse(rec):
    """The record's Kepler ellipse: mean motion n (rad/s), semi-axes a and
    a sqrt(1 - e^2) (km), and the rotation matrix PQW -> ECI."""
    n_rad = rec.mean_motion_rev_per_day * 2.0 * math.pi / SECONDS_PER_DAY
    a = (MU_EARTH_KM3_S2 / n_rad**2) ** (1.0 / 3.0)
    e = rec.eccentricity
    om, inc, w = (math.radians(x) for x in (rec.raan_deg, rec.inclination_deg,
                                            rec.arg_perigee_deg))
    co, so = math.cos(om), math.sin(om)
    ci, si = math.cos(inc), math.sin(inc)
    cw, sw = math.cos(w), math.sin(w)
    rot = np.array([
        [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
        [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
        [sw * si, cw * si, ci],
    ])
    return n_rad, a, a * math.sqrt(1.0 - e * e), rot


def _in_plane(x_pqw, y_pqw, rot):
    return np.stack([x_pqw, y_pqw, np.zeros_like(x_pqw)], axis=-1) @ rot.T


def _position(rec, ellipse, t_posix):
    """ECI positions (n, 3), km, and cos E, sin E at 1-d POSIX times t_posix."""
    n_rad, a, b, rot = ellipse
    e = rec.eccentricity
    ecc = solve_kepler(math.radians(rec.mean_anomaly_deg) + n_rad * (t_posix - rec.epoch_posix), e)
    cos_e, sin_e = np.cos(ecc), np.sin(ecc)
    return _in_plane(a * (cos_e - e), b * sin_e, rot), cos_e, sin_e


def _state(rec, ellipse, t_posix):
    """ECI positions (n, 3), km, and velocities (n, 3), km/s, at 1-d POSIX times."""
    n_rad, a, b, rot = ellipse
    pos, cos_e, sin_e = _position(rec, ellipse, t_posix)
    e_dot = n_rad / (1.0 - rec.eccentricity * cos_e)  # dE/dt
    return pos, _in_plane(-a * sin_e * e_dot, b * cos_e * e_dot, rot)


def gmst_rad(t_posix):
    """Greenwich mean sidereal time, radians (IAU 1982-style polynomial)."""
    d = (np.asarray(t_posix, dtype=float) - 946728000.0) / SECONDS_PER_DAY  # days from J2000.0
    t_cent = d / 36525.0
    gmst_deg = (
        280.46061837
        + 360.98564736629 * d
        + 0.000387933 * t_cent**2
        - t_cent**3 / 38710000.0
    )
    return np.deg2rad(np.remainder(gmst_deg, 360.0))


def _rotate_z(vec, angle_rad):
    """Vectors (..., 3) turned by `angle_rad` about z; +GMST maps ECEF to ECI."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    vec = np.asarray(vec, dtype=float)
    x, y = vec[..., 0], vec[..., 1]
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(c)) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = c * x - s * y, s * x + c * y, vec[..., 2]
    return out


def _site(station):
    """Station ECEF position, km (spherical Earth), and its east, north and up unit vectors."""
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    sl, cl, so, co = math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)
    r = R_EARTH_KM + station.altitude_m / 1000.0
    east, north, up = np.array([[-so, co, 0.0], [-sl * co, -sl * so, cl], [cl * co, cl * so, sl]])
    return np.array([r * cl * co, r * cl * so, r * sl]), (east, north, up)


def _look(sat_eci_km, gmst, site):
    """East and north components, horizontal distance, elevation (deg) and range
    (km) of the line of sight from `site` (see _site) at sidereal angles `gmst`."""
    origin, (east, north, up) = site
    rel = _rotate_z(sat_eci_km, -gmst)
    rel -= origin
    e, n, u = rel @ east, rel @ north, rel @ up
    horizontal = np.hypot(e, n)
    return e, n, horizontal, np.degrees(np.arctan2(u, horizontal)), np.hypot(horizontal, u)


def _az_el(sat_eci_km, gmst, site):
    """Azimuth (deg, 0 at the zenith), elevation (deg) and range (km); see _look."""
    e, n, horizontal, el, rng = _look(sat_eci_km, gmst, site)
    return np.where(horizontal < 1e-9, 0.0, np.degrees(np.arctan2(e, n)) % 360.0), el, rng


@frozen
class PassProfile:
    """One satellite passage: time series of azimuth, elevation, beta."""

    t_posix: np.ndarray
    azimuth_deg: np.ndarray
    elevation_deg: np.ndarray
    beta_deg: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(getattr(self, f), dtype=float) for f in self.__dataclass_fields__]
        vars(self).update(zip(self.__dataclass_fields__, columns))
        if len(columns[0]) < 2:
            raise ValueError("a pass needs at least two samples")
        if any(len(column) != len(columns[0]) for column in columns[1:]):
            raise ValueError("pass sample arrays must share one length")
        if not np.isfinite(np.concatenate(columns)).all():
            raise ValueError("pass samples must be finite")
        if not (self.t_posix[1:] > self.t_posix[:-1]).all():
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
    try:
        return PassProfile(*np.array(rows, dtype=float).reshape(-1, 4).T)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def _beta_from_state(pos, vel, origin, gmst):
    """Satellite telescope angle per sample, degrees, from ECI states (n, 3) at
    sidereal angles `gmst`: the signed in-plane off-nadir angle of the line of
    sight to ECEF `origin` (km) in the satellite's nadir-pointing frame
    (positive when the station is ahead along track).  Sums run x, y, z in
    turn, as in np.linalg.norm and np.sum over the last axis."""
    los = _rotate_z(origin, gmst)
    los -= pos
    x, y, z = pos.T
    r_hat = pos / np.sqrt(x * x + y * y + z * z)[:, None]
    (rx, ry, rz), (vx, vy, vz) = r_hat.T, vel.T
    along = (vx * rx + vy * ry + vz * rz)[:, None] * r_hat
    np.subtract(vel, along, out=along)
    ax, ay, az = along.T
    along /= np.sqrt(ax * ax + ay * ay + az * az)[:, None]
    lx, ly, lz = los.T
    return np.degrees(np.arctan2(lx * ax + ly * ay + lz * az, -(lx * rx + ly * ry + lz * rz)))


# Bound on d(gmst)/dt from gmst_rad's polynomial within a century of J2000.
EARTH_RATE_RAD_S = math.radians(360.98564736629 + 0.000776 / 36525.0) / SECONDS_PER_DAY
SCAN_SWING_DEG = 240.0  # elevation the rate bound may sweep between start samples
CROSSING_TOL_S = 1e-6


def _closing_speed(rec, station):
    """(V, rho_min): the satellite's Earth-fixed speed is at most V = v_p + w_E r_a
    km/s, so its range falls no faster than V, and never below r_p - r_s km."""
    _, a, _, _ = _ellipse(rec)
    r_p, r_a = a * (1.0 - rec.eccentricity), a * (1.0 + rec.eccentricity)
    v_p = math.sqrt(MU_EARTH_KM3_S2 * (2.0 / r_p - 1.0 / a))  # vis-viva
    return v_p + EARTH_RATE_RAD_S * r_a, r_p - (R_EARTH_KM + station.altitude_m / 1000.0)


def elevation_rate_bound(rec, station):
    """Upper bound R on |d elevation / dt|, rad/s; infinite if r_p <= r_s.

    The line of sight turns no faster than V (_closing_speed) over the
    shortest possible range r_p - r_s.
    """
    speed, floor = _closing_speed(rec, station)
    return speed / floor if floor > 0.0 else math.inf


def _elevation_gain_deg(range_km, dt_s, speed, floor):
    """Most elevation (deg) a line of sight at range_km can gain or lose in
    dt_s: its rate either way is at most V / range while the range falls at V
    to rho_min, so the change is ln(range / max(range - V dt, rho_min)), then
    V / rho_min per second."""
    shrunk = range_km - speed * dt_s
    return np.degrees(np.log(range_km / np.maximum(shrunk, floor))
                      + np.maximum(floor - shrunk, 0.0) / floor)


def _crossing(f, lo, hi, f_lo, f_hi):
    """A time within tol of a sign change of f in each bracket [lo, hi]
    (arrays), given f_lo = f(lo) and f_hi = f(hi) on opposite sides (f < 0
    against f >= 0); tol is CROSSING_TOL_S, or the float spacing of the
    bracket's times where that is coarser.

    Each round evaluates f, for every open bracket in one call, at t -+ tol
    around the Illinois regula-falsi point t, kept tol inside the bracket.
    If the two values fall on opposite sides, f changes sign within tol of t;
    otherwise the bracket closes to the side they share.  A bracket no wider
    than 2 tol ends at its midpoint.
    """
    tol = np.maximum(CROSSING_TOL_S, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    t, rows, kept = np.empty(len(lo)), np.arange(len(lo)), np.zeros(len(lo))
    while True:
        wide = hi - lo > 2.0 * tol
        t[rows[~wide]] = 0.5 * (lo + hi)[~wide]
        rows, lo, hi, f_lo, f_hi, tol, kept = (
            x[wide] for x in (rows, lo, hi, f_lo, f_hi, tol, kept))
        if not len(rows):
            return t
        mid = np.minimum(np.maximum(lo + (hi - lo) * (f_lo / (f_lo - f_hi)), lo + tol), hi - tol)
        left, right = f(np.concatenate((mid - tol, mid + tol))).reshape(2, -1)
        past = (left < 0.0) == (f_lo < 0.0)  # both on lo's side: the change lies past mid + tol
        # Illinois: an end kept twice running enters the next point at half its value
        f_lo = np.where(past, right, np.where(kept < 0.0, 0.5, 1.0) * f_lo)
        f_hi = np.where(past, np.where(kept > 0.0, 0.5, 1.0) * f_hi, left)
        lo, hi = np.where(past, mid + tol, lo), np.where(past, hi, mid - tol)
        kept = np.where(past, 1.0, -1.0)  # the end this round kept: hi or lo
        done = (left < 0.0) != (right < 0.0)
        lo[done] = hi[done] = mid[done]  # certified: the next round ends it at mid


def check_window(rec, t_start, t_end, threshold_deg, step_s):
    """extract_passes' argument checks: ValueError unless the window is non-empty
    and within the horizon, and threshold_deg and step_s are in range."""
    t0, t1 = float(t_start), float(t_end)
    if not t0 < t1:
        raise ValueError("empty time window")
    if not 0.0 <= threshold_deg < 90.0:
        raise ValueError(f"threshold must be in [0, 90), got {threshold_deg!r}")
    if not 0.0 < step_s < math.inf:
        raise ValueError(f"step_s must be finite and positive, got {step_s!r}")
    span = max(abs(t0 - rec.epoch_posix), abs(t1 - rec.epoch_posix))
    if span > MAX_PROPAGATION_DAYS * SECONDS_PER_DAY:
        raise ValueError(f"propagation {span / SECONDS_PER_DAY:.6g} days from epoch exceeds "
                         f"the {MAX_PROPAGATION_DAYS:.0f}-day two-body accuracy horizon")
    if (t1 - t0) / step_s >= MAX_GRID_SAMPLES:
        raise ValueError(f"a {t1 - t0:.6g} s window at step_s {step_s!r} needs more than "
                         f"{MAX_GRID_SAMPLES} samples")


def extract_passes(rec, station, t_start, t_end, threshold_deg=10.0, step_s=1.0):
    """All complete passes with elevation >= threshold inside [t_start, t_end].

    Interior samples sit on the grid np.arange(t_start, t_end + step_s / 2,
    step_s); the first and last sample of each pass are refined to the
    threshold crossing itself, to CROSSING_TOL_S (_crossing).  Passes clipped
    by the window edges (already up at t_start, still up at t_end) are
    dropped since their true rise/set times are unknown.  The grid is never
    built: the scan starts from every k-th sample, k from elevation_rate_bound
    (every sample if that is infinite), and splits each interval between
    evaluated samples in up to 4 until it is decided.  With G the
    _elevation_gain_deg of either end over the interval, which bounds the
    elevation change either way, an interval is below when both ends are and
    min(el + G) is, and up when both ends are and max(el - G) is.  The
    horizon applies to [t_start, t_end]; a set crossing may lie up to
    step_s / 2 past t_end.
    """
    t0, t1 = float(t_start), float(t_end)
    check_window(rec, t0, t1, threshold_deg, step_s)
    # grid sample i sits at t0 + i * dt, as np.arange fills it
    n, dt = math.ceil((t1 + step_s / 2.0 - t0) / step_s), (t0 + step_s) - t0
    ellipse, site = _ellipse(rec), _site(station)

    def sight(t):  # elevation (deg) and range (km) at times t
        return _look(_position(rec, ellipse, t)[0], gmst_rad(t), site)[3:]

    # start samples SCAN_SWING_DEG of rate bound apart; one sight call a round
    closing = _closing_speed(rec, station)
    rate_deg_s = math.degrees(elevation_rate_bound(rec, station))
    i = np.append(np.arange(0, n - 1, max(1, int(SCAN_SWING_DEG / (rate_deg_s * step_s)))), n - 1)
    el, rng = sight(t0 + i * dt)
    seen, seen_el = [i], [el]
    pair = np.ones(len(i) - 1, dtype=bool)  # nodes k and k + 1 bound an interval
    while True:
        a = np.flatnonzero(pair & (np.diff(i) > 1))
        gap, el_a, el_b = i[a + 1] - i[a], el[a], el[a + 1]
        g_a, g_b = (_elevation_gain_deg(rng[k], (gap - 1) * dt, *closing) for k in (a, a + 1))
        # decided: the ends and the bound put every sample inside below or up
        low = ((np.minimum(el_a + g_a, el_b + g_b) < threshold_deg)
               & (np.maximum(el_a, el_b) < threshold_deg))
        high = ((np.maximum(el_a - g_a, el_b - g_b) >= threshold_deg)
                & (np.minimum(el_a, el_b) >= threshold_deg))
        a, gap = a[~(low | high)], gap[~(low | high)]  # a NaN bound splits
        if not len(a):
            break
        parts = np.minimum(gap, 4)
        row = np.repeat(np.arange(len(a)), parts + 1)
        j = np.arange(len(row)) - np.repeat(np.cumsum(parts + 1) - parts - 1, parts + 1)
        known = a[row] + (j == parts[row])  # node j = 0 and j = parts: the old ends
        i, el, rng = i[a[row]] + j * gap[row] // parts[row], el[known], rng[known]
        new = (j > 0) & (j < parts[row])
        el[new], rng[new] = sight(t0 + i[new] * dt)
        seen.append(i[new])
        seen_el.append(el[new])
        pair = (j < parts[row])[:-1]

    # a crossing is a sign change between consecutive evaluated samples, adjacent on
    # the grid since the search decided every wider gap (both ends on one side); a set
    # before the first rise or a rise after the last set is a pass clipped by an edge
    order = np.argsort(np.concatenate(seen), kind="stable")  # a few sorted runs, no repeats
    i, el = np.concatenate(seen)[order], np.concatenate(seen_el)[order]
    up, f = el >= threshold_deg, el - threshold_deg
    k = np.flatnonzero(up[:-1] != up[1:])  # bracket k: samples k and k + 1
    k = k[int(up[0]):len(k) - int(up[-1])]  # rise, set, rise, ..., set
    if not len(k):
        return []
    rise, fall = i[k[::2] + 1], i[k[1::2]]  # each pass's first and last grid sample
    k = np.r_[k[::2], k[1::2]]  # the rises' brackets, then the sets'
    t_rise, t_set = np.split(_crossing(lambda t: sight(t)[0] - threshold_deg, t0 + i[k] * dt,
                                       t0 + i[k + 1] * dt, f[k], f[k + 1]), 2)

    # each pass: its rise, the grid samples strictly between rise and set, its set; a
    # crossing stays within an ulp of its bracket, so only rise and fall can meet it
    first = rise + (t0 + rise * dt <= t_rise)
    size = fall - (t0 + fall * dt >= t_set) - first + 3
    end = np.cumsum(size)
    times = t0 + (np.repeat(first - 1 - end + size, size) + np.arange(end[-1])) * dt
    times[end - size], times[end - 1] = t_rise, t_set
    pos, vel = _state(rec, ellipse, times)  # no horizon check: a set may pass t_end
    gmst = gmst_rad(times)
    az, elev = _az_el(pos, gmst, site)[:2]
    beta = _beta_from_state(pos, vel, site[0], gmst)
    return [PassProfile(times[a:b], az[a:b], elev[a:b], beta[a:b]) for a, b in zip(end - size, end)]
