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
from dataclasses import dataclass

import numpy as np

# Measured PER is clamped here: real power meters have finite dynamic range
# and an infinity would poison CSV/JSON output.
PER_CAP = 1e9

# Tolerance for "is this state normalized" input checks.
_NORM_ATOL = 1e-6


class CompensationSolveError(RuntimeError):
    """Raised when the fiber-compensation solver cannot reach its residual."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _check_finite_angle(angle):
    if not np.isfinite(angle).all():
        raise ValueError(f"angle must be finite, got {angle!r}")


@dataclass(frozen=True)
class PolarizationState:
    """Pure polarization state(s): complex amplitude pair (a_h, a_v)."""

    a_h: complex
    a_v: complex

    def norm_sq(self):
        return abs(self.a_h) ** 2 + abs(self.a_v) ** 2

    def is_normalized(self, atol=_NORM_ATOL):
        return bool(np.all(abs(self.norm_sq() - 1.0) <= atol))

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
        return 0.5 * math.atan2(s2, s1)

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


@dataclass(frozen=True)
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
        m = self.matrix
        return bool(np.allclose(np.swapaxes(m, -1, -2).conj() @ m, np.eye(2), atol=atol, rtol=0.0))


@dataclass(frozen=True)
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
        if not np.all((a_s <= 1.0 + 1e-12) & (a_p <= 1.0 + 1e-12)):
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
    return _retarder(angle, cmath.exp(1j * retardance))


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


def identity_element():
    return OpticalElement(1.0, 0.0, 0.0, 1.0)


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


def measure_per(state, reference_angle, cap=PER_CAP):
    """Extinction ratio of `state` against the reference_angle analyzer pair.

    Transmitted power through a polarizer at reference_angle vs one at
    reference_angle + pi/2; returns the max/min power ratio, clamped at `cap`.
    """
    if not state.is_normalized():
        raise ValueError("measure_per requires a normalized state")
    _check_finite_angle(reference_angle)
    c, s = np.cos(reference_angle), np.sin(reference_angle)
    i_par = abs(c * state.a_h + s * state.a_v) ** 2
    i_perp = abs(c * state.a_v - s * state.a_h) ** 2
    i_max, i_min = np.maximum(i_par, i_perp), np.minimum(i_par, i_perp)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(i_min > 0.0, np.minimum(i_max / i_min, cap), cap)[()]


# --- fiber compensation: QWP/HWP/QWP inversion of an arbitrary unitary -----

# Transformation into the circular basis |R>,|L>; in that basis any waveplate
# becomes a rotation about an equatorial axis of the Poincare sphere, which is
# what makes the closed-form Euler-like decomposition below possible.
_T_CIRC = np.array([[1.0, 1.0], [-1.0j, 1.0j]], dtype=complex) / math.sqrt(2.0)


def _gadget(q1, h, q2):
    return qwp(q1) @ hwp(h) @ qwp(q2)


def _phase_aligned_residual(m):
    """Operator-norm distance of unitary-ish m from the nearest phase*identity."""
    tr = m[0, 0] + m[1, 1]
    if abs(tr) > 1e-12:
        lam = tr / abs(tr)
    else:
        lam = 1.0
    return float(np.linalg.norm(m - lam * np.eye(2), 2))


def _reduce_half_turn(angle):
    """Reduce a waveplate axis angle to [-pi/2, pi/2); plates are pi-periodic."""
    a = math.remainder(angle, math.pi)
    if a >= math.pi / 2.0:
        a -= math.pi
    return a


def solve_fiber_compensation(channel, tol=1e-6):
    """Angles (q1, h, q2) with qwp(q1) @ hwp(h) @ qwp(q2) @ channel ~ identity.

    This undoes a static unitary channel (fibers plus fixed mirrors) with the
    standard two-quarter-wave-plate / one-half-wave-plate stack.  The solution
    is analytic: in the circular basis the target splits into an Euler-like
    triple of equatorial Poincare rotations.

    Angles are reduced to [-pi/2, pi/2).  Raises CompensationSolveError when
    the residual cannot be brought below `tol`.
    """
    m = channel.matrix
    if not channel.is_unitary(atol=1e-9):
        raise ValueError("channel must be unitary within 1e-9")

    target = m.conj().T  # want the gadget to invert the channel
    vc = _T_CIRC.conj().T @ target @ _T_CIRC
    det = vc[0, 0] * vc[1, 1] - vc[0, 1] * vc[1, 0]
    vc = vc / cmath.sqrt(det)

    a, b = vc[0, 0], vc[0, 1]
    sigma = math.atan2(abs(b), abs(a))
    delta = cmath.phase(a) if abs(a) > 1e-15 else 0.0
    w = -cmath.phase(b) if abs(b) > 1e-15 else 0.0

    # Circular-basis axis longitudes; physical plate angle is -longitude/2.
    phi1 = w - delta
    phi3 = w + delta
    psi = sigma + w
    q1 = _reduce_half_turn(-phi1 / 2.0)
    h = _reduce_half_turn(-psi / 2.0)
    q2 = _reduce_half_turn(-phi3 / 2.0)

    residual = _phase_aligned_residual((_gadget(q1, h, q2) @ channel).matrix)
    if residual > tol:
        raise CompensationSolveError("fiber compensation solver did not converge", residual)
    return q1, h, q2
