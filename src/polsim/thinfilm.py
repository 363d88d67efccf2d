"""Fresnel reflection and multilayer coating response.

Every boundary follows the Fresnel amplitude equations

    r_s = (n0 cos(ti) - n cos(tt)) / (n0 cos(ti) + n cos(tt))
    r_p = (n cos(ti) - n0 cos(tt)) / (n cos(ti) + n0 cos(tt))

with Snell's law n0 sin(ti) = n sin(tt).  Note the sign convention baked into
the p equation: at normal incidence r_s and r_p have opposite signs.  A bare
interface is the empty stack, `LayerStack(n0, (), n)`, and both multilayer
routines return exactly these equations for it; all relative-phase
bookkeeping in the rest of the package uses arg(r_s) - arg(r_p).

Two multilayer algorithms are provided: the characteristic-matrix method
(`stack_response`) and a recursive interface-by-interface composition
(`stack_response_oracle`), each walking s and p in one loop over the layers.
They agree to 1e-10 in the test suite, but both read their admittances and
phase thicknesses from `_media`, which that check cannot see; the suite checks
eta_s against sqrt(n^2 - n0^2 sin^2(ti)) and eta_s eta_p against n^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field

import numpy as np

from .frozen import frozen
from .jones import MirrorResponse, _every, _value
from .table import ParseError, finite_float


@frozen
class Ray:
    """Incidence angle (radians) and vacuum wavelength (nm); floats or
    broadcastable arrays for a grid of rays."""

    theta_i: float
    wavelength_nm: float

    def __post_init__(self):
        theta, wl = _value(self.theta_i, float), _value(self.wavelength_nm, float)
        ok = (0.0 <= theta) & (theta < math.pi / 2.0)
        if not _every(ok):
            bad = np.asarray(theta)[np.logical_not(ok)]
            raise ValueError(f"incidence angle must be in [0, pi/2), got {float(bad[0])!r}")
        if not _every(ok & (wl > 0.0)):  # ok is all True here; `&` checks the shapes broadcast
            raise ValueError("wavelength must be positive")


@frozen
class LayerStack:
    """Coating stack: ambient index, ordered (index, thickness_nm) layers, substrate.

    The first layer in the list is the one the light meets first.  An empty
    layer list is a bare ambient/substrate interface.  `indices` (ambient,
    layers..., substrate) and `thicknesses` hold the same values as arrays, and
    `squares` holds n^2, exact because every |n| must lie in [1e-150, 1e150].
    """

    ambient: complex
    layers: tuple
    substrate: complex
    indices: np.ndarray = field(init=False, repr=False, compare=False)
    squares: np.ndarray = field(init=False, repr=False, compare=False)
    thicknesses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vars(self).update(layers=tuple((complex(n), float(d)) for n, d in self.layers))
        if complex(self.ambient).real <= 0.0 or complex(self.substrate).real <= 0.0:
            raise ValueError("ambient/substrate indices need a positive real part")
        for i, (_, d) in enumerate(self.layers):
            if not d > 0.0:
                raise ValueError(f"layer {i}: thickness must be positive, got {d!r}")
        n = np.array([self.ambient, *(n for n, _ in self.layers), self.substrate], complex)
        for value, size in zip(n.tolist(), np.abs(n).tolist()):
            if not 1e-150 <= size <= 1e150:  # n^2 would overflow or underflow
                raise ValueError(f"index {value!r} needs |n| in [1e-150, 1e150]")
        vars(self).update(indices=n, squares=n * n,
                          thicknesses=np.array([d for _, d in self.layers], float))


def _finite_response(algorithm):
    """Run `algorithm` with numpy floating-point faults raised, and report any
    overflow, invalid operation or division by zero as a ValueError."""

    @functools.wraps(algorithm)
    def checked(stack, ray):
        try:
            with np.errstate(all="raise", under="ignore"):
                return algorithm(stack, ray)
        except ArithmeticError as exc:
            raise ValueError(f"non-finite stack response ({exc})") from None

    return checked


def _media(stack, ray):
    """Admittances eta_s = n cos(t), eta_p = n / cos(t) of every medium (ambient,
    layers..., substrate) and phase thicknesses 2 pi d eta_s / lambda of the layers,
    media on axis 0 ahead of the ray grid's axes, and a converter to loop rows (Python
    complex lists for one ray, arrays for a grid).  Past the ambient's n0 cos(ti),
    eta_s is the root of n^2 - (n0 sin(ti))^2 with Im >= 0 (Re >= 0 if Im = 0): the
    principal root, whose Re is never negative, negated where Im < 0.
    """
    theta, wl = ray.theta_i, ray.wavelength_nm
    grid = (1,) * np.broadcast(theta, wl).ndim
    if grid:  # a bare interface has no layer to carry the wavelength's axes
        theta, wl = np.broadcast_arrays(theta, wl)
    n0, squares = stack.indices[0], stack.squares.reshape((-1,) + grid)
    k = n0 * np.sin(theta)
    eta_s = np.sqrt(squares - k * k)
    eta_s[eta_s.imag < 0.0] *= -1.0
    eta_s[0] = n0 * np.cos(theta)
    eta_p = squares / eta_s
    beta = 2.0 * math.pi / wl * stack.thicknesses.reshape((-1,) + grid) * eta_s[1:-1]
    return eta_s, eta_p, beta, (lambda a: a) if grid else np.ndarray.tolist


@_finite_response
def stack_response(stack, ray):
    """Multilayer amplitude reflectances via the characteristic-matrix method.

    Each layer contributes M = [[cos b, -i sin b / eta], [-i eta sin b, cos b]]
    with phase thickness b = 2 pi n d cos(t) / lambda and tilted admittance
    eta_s = n cos(t), eta_p = n / cos(t).  The layers are applied from the
    substrate side, [B, C] = M_1 ... M_L [1, eta_sub], and r = (eta_0 B - C) /
    (eta_0 B + C).  Time convention is exp(-i w t), so absorbing media carry a
    positive imaginary index.  The admittance form returns r_p in the opposite
    sign convention from the Fresnel equations above, so the p result is
    negated to keep one convention package-wide.

    Each M is scaled by exp(i b), which cancels in r: with E = exp(2 i b) it
    is [[(1 + E)/2, (1 - E)/(2 eta)], [eta (1 - E)/2, (1 + E)/2]].  Im b >= 0
    on the decaying branch, so |E| <= 1 and a thick absorbing layer cannot
    overflow the way cos b and sin b would.
    """
    eta_s, eta_p, beta, rows = _media(stack, ray)
    phase = np.exp(2j * beta[::-1])  # substrate side first
    half_diff = (1.0 - phase) / 2.0
    (s0, s_sub), (p0, p_sub) = rows(eta_s[::len(eta_s) - 1]), rows(eta_p[::len(eta_p) - 1])
    s_layers, p_layers = eta_s[-2:0:-1], eta_p[-2:0:-1]
    b_s, c_s, b_p, c_p = 1.0, s_sub, 1.0, p_sub
    # M = [[d, m01], [m10, d]], one per layer and polarization
    for d, m01_s, m10_s, m01_p, m10_p in zip(
            rows((1.0 + phase) / 2.0), rows(half_diff / s_layers), rows(half_diff * s_layers),
            rows(half_diff / p_layers), rows(half_diff * p_layers)):
        b_s, c_s = d * b_s + m01_s * c_s, m10_s * b_s + d * c_s
        b_p, c_p = d * b_p + m01_p * c_p, m10_p * b_p + d * c_p
    return MirrorResponse((s0 * b_s - c_s) / (s0 * b_s + c_s),
                          -((p0 * b_p - c_p) / (p0 * b_p + c_p)))


@_finite_response
def stack_response_oracle(stack, ray):
    """Multilayer reflectances by recursive single-interface composition.

    Starting from the substrate, each boundary's Fresnel coefficient, (u - v) / (u + v)
    for s and (v - u) / (v + u) for p from the admittances u above and v below it, is
    folded in through r <- (r_j + r exp(2 i b)) / (1 + r_j r exp(2 i b)).  Cross-checks
    the characteristic-matrix method's recursion, not the `_media` both share.
    """
    eta_s, eta_p, beta, rows = _media(stack, ray)
    a, b, c, d = eta_s[:-1], eta_s[1:], eta_p[1:], eta_p[:-1]
    r_s, *s_b = rows(((a - b) / (a + b))[::-1])  # boundaries bottom-up, substrate first
    r_p, *p_b = rows(((c - d) / (c + d))[::-1])
    for j_s, j_p, ph in zip(s_b, p_b, rows(np.exp(2j * beta)[::-1])):
        rph = r_s * ph
        r_s = (j_s + rph) / (1.0 + j_s * rph)
        rph = r_p * ph
        r_p = (j_p + rph) / (1.0 + j_p * rph)
    return MirrorResponse(r_s, r_p)


def quarter_wave_stack():
    """Alternating high/low stack, each layer a quarter wave at 45 degrees / 780 nm.

    Layer thickness is lambda / (4 n cos t) with t the internal angle, so the
    stopband of both polarizations is centered on the design wavelength at the
    design incidence.  25 pairs (50 layers) of Ta2O5/SiO2-class indices 2.10
    and 1.45 in air on glass (1.52) stand in for a commercial high reflector.
    """
    nc = _media(LayerStack(1.0, ((2.10, 1.0), (1.45, 1.0)), 1.0), Ray(math.radians(45.0), 780.0))[0]
    pair = tuple((n, 780.0 / (4.0 * x.real)) for n, x in zip((2.10, 1.45), nc[1:-1].tolist()))
    return LayerStack(1.0, pair * 25, 1.52)


# --- stack description files ------------------------------------------------
#
# Plain text, one definition per line:
#   ambient   <n_real> <n_imag>
#   substrate <n_real> <n_imag>
#   <n_real> <n_imag> <thickness_nm>     (one line per layer, in light order)
# '#' starts a comment; blank lines are ignored.


def parse_stack_text(text):
    header = {}  # 'ambient' and 'substrate' indices
    layers = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in ("ambient", "substrate"):
            if len(tokens) != 3:
                raise ParseError(line_no, f"'{tokens[0]}' needs 2 numbers, got {len(tokens) - 1}")
            try:
                value = complex(*map(finite_float, tokens[1:]))
            except ValueError:
                raise ParseError(
                    line_no, f"non-numeric or non-finite index in {raw.strip()!r}"
                ) from None
            if tokens[0] in header:
                raise ParseError(line_no, f"duplicate '{tokens[0]}' line")
            header[tokens[0]] = value
        else:
            if len(tokens) != 3:
                raise ParseError(line_no, "layer line needs 'n_real n_imag thickness_nm', "
                                 f"got {raw.strip()!r}")
            try:
                n_re, n_im, d = map(finite_float, tokens)
            except ValueError:
                raise ParseError(
                    line_no, f"non-numeric or non-finite layer field in {raw.strip()!r}"
                ) from None
            if d <= 0.0:
                raise ParseError(line_no, f"layer thickness must be positive, got {d!r}")
            if n_re == n_im == 0.0:
                raise ParseError(line_no, "layer index must be non-zero")
            layers.append((complex(n_re, n_im), d))
    for word in ("ambient", "substrate"):
        if word not in header:
            raise ParseError(0, f"missing '{word}' line")
    try:
        return LayerStack(header["ambient"], tuple(layers), header["substrate"])
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def load_stack_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_stack_text(fh.read())
