"""Jones-calculus polarization algebra.

Conventions used throughout the package:

* Jones vectors live in the H/V basis, ``H = (1, 0)`` and ``V = (0, 1)``.
* All angles are in radians and measured counterclockwise from H.
* A waveplate with its fast axis at angle ``a`` and retardance ``delta`` is
  ``R(a) @ diag(1, exp(i*delta)) @ R(-a)`` where ``R`` is the rotation matrix
  ``[[cos a, -sin a], [sin a, cos a]]``.  With this convention a half-wave
  plate at ``a`` maps linear polarization at ``g`` to linear polarization at
  ``2a - g`` (the usual factor-of-two lever arm).
* A coated mirror is diagonal ``diag(r_s, r_p)`` in its own s/p frame with s
  along H; callers compose with ``rotator`` to move it into the lab frame.

Everything here is a pure function over immutable values.  The element
constructors, ``@``, ``apply``, ``normalized`` and the metrics broadcast: an
angle may be an ndarray, and then the `OpticalElement` entries and
`PolarizationState` amplitudes it produces are arrays of that shape, so one
expression evaluates a whole pass, scan grid or offset grid.  ``.matrix``
gives the ``(..., 2, 2)`` array view.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .frozen import frozen

# Measured PER is clamped here: real power meters have finite dynamic range
# and an infinity would poison CSV/JSON output.
PER_CAP = 1e9

# Tolerance for "is this state normalized" input checks.
_NORM_ATOL = 1e-6

# Largest operator-norm residual the fiber-compensation solver may leave.
FIBER_RESIDUAL_TOL = 1e-6


class CompensationSolveError(RuntimeError):
    """Raised when the fiber-compensation solver cannot reach its residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _value(x, dtype=None):
    """A number as it is, anything else as an array: checks on one number skip numpy."""
    return x if isinstance(x, (int, float, complex)) else np.asarray(x, dtype)


def _every(ok):
    """True when the flag `ok`, or every flag of an array of them, is set."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def _check_finite_angle(angle):
    if not _every(abs(_value(angle)) < math.inf):
        raise ValueError(f"angle must be finite, got {angle!r}")


@frozen
class PolarizationState:
    """Pure polarization state(s): complex amplitude pair (a_h, a_v)."""

    a_h: complex
    a_v: complex

    def norm_sq(self):
        return abs(self.a_h) ** 2 + abs(self.a_v) ** 2

    def is_normalized(self):
        return bool(np.all(abs(self.norm_sq() - 1.0) <= _NORM_ATOL))

    def normalized(self):
        n = np.sqrt(self.norm_sq())
        if not np.all(n > 0.0):
            raise ValueError("cannot normalize the zero state")
        return PolarizationState(self.a_h / n, self.a_v / n)

    def linear_axis(self):
        """Orientation of the polarization ellipse major axis, in (-pi/2, pi/2].

        Computed from the Stokes parameters S1, S2; for a linear state this is
        simply its angle from H.
        """
        s1 = abs(self.a_h) ** 2 - abs(self.a_v) ** 2
        s2 = 2.0 * (self.a_h.conjugate() * self.a_v).real
        axis = 0.5 * np.arctan2(s2, s1)
        return axis if np.ndim(axis) else float(axis)

    @classmethod
    def h(cls):
        return cls(1.0, 0.0)

    @classmethod
    def v(cls):
        return cls(0.0, 1.0)

    @classmethod
    def plus(cls):
        r = 1.0 / math.sqrt(2.0)
        return cls(r, r)

    @classmethod
    def minus(cls):
        r = 1.0 / math.sqrt(2.0)
        return cls(r, -r)


@frozen
class OpticalElement:
    """2x2 complex Jones matrix (or a batch of them) with composition helpers."""

    m00: complex
    m01: complex
    m10: complex
    m11: complex

    @property
    def matrix(self):
        """(2, 2) complex array; (..., 2, 2) when the entries are arrays of one shape."""
        m = np.array([[self.m00, self.m01], [self.m10, self.m11]], dtype=complex)
        return m if m.ndim == 2 else np.moveaxis(m, (0, 1), (-2, -1))

    def __matmul__(self, other):
        if not isinstance(other, OpticalElement):
            return NotImplemented
        a, b = self, other
        return OpticalElement(a.m00 * b.m00 + a.m01 * b.m10, a.m00 * b.m01 + a.m01 * b.m11,
                              a.m10 * b.m00 + a.m11 * b.m10, a.m10 * b.m01 + a.m11 * b.m11)

    def apply(self, state):
        return PolarizationState(self.m00 * state.a_h + self.m01 * state.a_v,
                                 self.m10 * state.a_h + self.m11 * state.a_v)

    def is_unitary(self, atol=1e-12):
        """M^H M = I within `atol`: unit columns (so finite entries), then their overlap."""
        a, b, c, d = self.m00, self.m01, self.m10, self.m11
        return (_every((abs(abs(a) ** 2 + abs(c) ** 2 - 1.0) <= atol)
                       & (abs(abs(b) ** 2 + abs(d) ** 2 - 1.0) <= atol))
                and _every(abs(np.conj(a) * b + np.conj(c) * d) <= atol))


@frozen
class MirrorResponse:
    """Complex amplitude reflectances of one mirror for s and p polarization.

    The relative phase ``arg(r_s) - arg(r_p)`` carries the extra phase a
    coating stamps between the two components; an ideal mirror has
    ``r_s = 1, r_p = -1`` (pi relative phase, no loss).
    """

    r_s: complex
    r_p: complex

    def __post_init__(self):
        a_s, a_p = abs(self.r_s), abs(self.r_p)
        if not _every((a_s <= 1.0 + 1e-12) & (a_p <= 1.0 + 1e-12)):
            raise ValueError(
                f"passive mirror needs finite |r| <= 1, got |r_s|={np.max(a_s):.6g}, "
                f"|r_p|={np.max(a_p):.6g}"
            )

    @property
    def phase_gap(self):
        """Relative phase arg(r_s) - arg(r_p), wrapped to [-pi, pi] as
        math.remainder does (a float for one mirror, else an array)."""
        d = np.angle(self.r_s) - np.angle(self.r_p)
        d = d - 2.0 * math.pi * np.round(d / (2.0 * math.pi))
        return d if np.ndim(d) else float(d)

    @classmethod
    def from_powers(cls, rs_power, rp_power, phase_gap):
        """Build from power reflectances |r_s|^2, |r_p|^2 and relative phase."""
        if not (0.0 <= rs_power <= 1.0 and 0.0 <= rp_power <= 1.0):
            raise ValueError("power reflectances must lie in [0, 1]")
        if not math.isfinite(phase_gap):
            raise ValueError(f"phase gap must be finite, got {phase_gap!r}")
        return cls(math.sqrt(rs_power), math.sqrt(rp_power) * cmath.exp(-1j * phase_gap))


# Ideal plane mirror: unit reflectance, pi phase between s and p.
IDEAL_MIRROR = MirrorResponse(1.0, -1.0)

# The element that changes no polarization.
IDENTITY = OpticalElement(1.0, 0.0, 0.0, 1.0)


def _retarder(angle, eigenvalue):
    """R(angle) @ diag(1, eigenvalue) @ R(-angle): passes the `angle` axis and
    multiplies the orthogonal one by `eigenvalue`."""
    _check_finite_angle(angle)
    c, s = np.cos(angle), np.sin(angle)
    off = c * s * (1.0 - eigenvalue)
    return OpticalElement(c * c + s * s * eigenvalue, off, off, s * s + c * c * eigenvalue)


def rotator(angle):
    """Frame rotation by `angle` (rotates linear polarization by +angle)."""
    _check_finite_angle(angle)
    c, s = np.cos(angle), np.sin(angle)
    return OpticalElement(c, -s, s, c)


def waveplate(angle, retardance):
    """Linear retarder, fast axis at `angle`, retardance `retardance`."""
    _check_finite_angle(retardance)
    return _retarder(angle, np.exp(1j * _value(retardance)))


def hwp(angle):
    """Half-wave plate at `angle`: linear at g goes to linear at 2*angle - g.

    The eigenvalue is exactly -1, so the matrix is the real
    [[cos 2a, sin 2a], [sin 2a, -cos 2a]].
    """
    return _retarder(angle, -1.0)


def qwp(angle):
    """Quarter-wave plate at `angle`; qwp(a) @ qwp(a) equals hwp(a)."""
    return waveplate(angle, math.pi / 2.0)


def polarizer(angle):
    """Ideal linear polarizer (rank-1 projector) transmitting at `angle`."""
    return _retarder(angle, 0.0)


def mirror_element(resp):
    """Jones matrix diag(r_s, r_p) of a coated mirror in its s/p frame."""
    return OpticalElement(resp.r_s, 0.0, 0.0, resp.r_p)


def fidelity(a, b):
    """Pure-state fidelity |<a|b>|^2; insensitive to global phase."""
    if not a.is_normalized() or not b.is_normalized():
        raise ValueError("fidelity requires normalized states")
    ip = np.conj(a.a_h) * b.a_h + np.conj(a.a_v) * b.a_v
    return np.minimum(abs(ip) ** 2, 1.0)


def per_to_fidelity(per):
    """Convert polarization extinction ratios to fidelity, per/(per+1)."""
    if not np.all(np.asarray(per) > 0.0):
        raise ValueError(f"PER must be positive, got {per!r}")
    return per / (per + 1.0)


def measure_per(state, reference_angle):
    """Extinction ratio of `state` against the reference_angle analyzer pair.

    Transmitted power through a polarizer at reference_angle vs one at
    reference_angle + pi/2; returns the max/min power ratio, clamped at PER_CAP.
    """
    if not state.is_normalized():
        raise ValueError("measure_per requires a normalized state")
    _check_finite_angle(reference_angle)
    c, s = np.cos(reference_angle), np.sin(reference_angle)
    i_par = abs(c * state.a_h + s * state.a_v) ** 2
    i_perp = abs(c * state.a_v - s * state.a_h) ** 2
    i_max, i_min = np.maximum(i_par, i_perp), np.minimum(i_par, i_perp)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(i_min > 0.0, np.minimum(i_max / i_min, PER_CAP), PER_CAP)[()]


# --- fiber compensation: QWP/HWP/QWP inversion of an arbitrary unitary -----


def _identity_residual(g):
    """Operator-norm distance of `g` from lam I, lam the phase of tr g (1 where
    it vanishes): the largest singular value of D = g - lam I, from D's column
    norms A, B and overlap C as sqrt((A+B)/2 + hypot((A-B)/2, |C|)).  That is
    (F + sqrt(F^2 - 4|det D|^2))/2 under the root, without its cancellation
    at the equal singular values of a unitary g."""
    trace = g.m00 + g.m11
    small = abs(trace) <= 1e-12
    lam = np.where(small, 1.0, trace / (abs(trace) + small))
    d00, d11 = g.m00 - lam, g.m11 - lam
    col0, col1 = abs(d00) ** 2 + abs(g.m10) ** 2, abs(g.m01) ** 2 + abs(d11) ** 2
    overlap = abs(np.conj(d00) * g.m01 + np.conj(g.m10) * d11)
    return np.sqrt((col0 + col1) / 2.0 + np.hypot((col0 - col1) / 2.0, overlap))


def solve_fiber_compensation(channel):
    """Angles (q1, h, q2) with qwp(q1) @ hwp(h) @ qwp(q2) @ channel ~ identity.

    Undoes a static unitary channel (fibers plus fixed mirrors) with the
    QWP-HWP-QWP gadget of Simon and Mukunda (Phys. Lett. A 143, 165, 1990),
    analytically: in the circular basis |R>, |L> every waveplate is a rotation
    about an equatorial axis of the Poincare sphere, and the target splits into
    an Euler-like triple of them.  Array entries give arrays of angles, one
    channel three floats, each in [-pi/2, pi/2).  Raises CompensationSolveError
    with the worst _identity_residual of gadget @ channel above FIBER_RESIDUAL_TOL.
    """
    if not channel.is_unitary(atol=1e-9):
        raise ValueError("channel must be unitary within 1e-9")
    m00, m01, m10, m11 = channel.m00, channel.m01, channel.m10, channel.m11

    # first row (a, b) of the target m^H in the circular basis, scaled to unit determinant
    root = 2.0 * np.sqrt(m00 * m11 - m01 * m10 + 0j)
    a = np.conj((m00 + m11 - 1j * (m01 - m10)) / root)
    b = np.conj((m00 - m11 - 1j * (m01 + m10)) / root)
    sigma = np.arctan2(abs(b), abs(a))
    delta = np.angle(a) * (abs(a) > 1e-15)  # a phase, or 0 where the entry vanishes
    w = -np.angle(b) * (abs(b) > 1e-15)

    # Axis longitudes in the circular basis; a plate's angle is -longitude/2.  Each half
    # lies in [-pi, pi], so one turn of pi (plates are pi-periodic) brings it to [-pi/2, pi/2).
    q1, h, q2 = (x - math.pi * ((x >= math.pi / 2.0) * 1.0 - (x < -math.pi / 2.0))
                 for x in (-(w - delta) / 2.0, -(sigma + w) / 2.0, -(w + delta) / 2.0))

    residual = _identity_residual(qwp(q1) @ hwp(h) @ qwp(q2) @ channel)
    worst = float(residual.max(initial=0.0))
    if worst > FIBER_RESIDUAL_TOL:
        raise CompensationSolveError("fiber compensation solver did not converge", worst)
    return (q1, h, q2) if np.ndim(q1) else (float(q1), float(h), float(q2))
