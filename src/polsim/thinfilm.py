"""Fresnel reflection and multilayer coating response.

Every boundary follows the Fresnel amplitude equations

    r_s = (n0 cos(ti) - n cos(tt)) / (n0 cos(ti) + n cos(tt))
    r_p = (n cos(ti) - n0 cos(tt)) / (n cos(ti) + n0 cos(tt))

with Snell's law n0 sin(ti) = n sin(tt).  Note the sign convention baked into
the p equation: at normal incidence r_s and r_p have opposite signs.  A bare
interface is the empty stack, `LayerStack(n0, (), n)`, and both multilayer
routines return exactly these equations for it; all relative-phase
bookkeeping in the rest of the package uses arg(r_s) - arg(r_p).

Two independent multilayer algorithms are provided: the characteristic-matrix
method (`stack_response`) and a recursive interface-by-interface composition
(`stack_response_oracle`).  They are algebraically equivalent and are checked
against each other to 1e-10 in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .jones import MirrorResponse


class StackParseError(ValueError):
    """Stack-file syntax error; carries the offending 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Ray:
    """Incidence angle (radians) and vacuum wavelength (nm); floats or
    broadcastable arrays for a grid of rays."""

    theta_i: float
    wavelength_nm: float

    def __post_init__(self):
        theta, wl = np.asarray(self.theta_i, float), np.asarray(self.wavelength_nm, float)
        bad = theta[~((0.0 <= theta) & (theta < math.pi / 2.0))]
        if bad.size:
            raise ValueError(f"incidence angle must be in [0, pi/2), got {float(bad[0])!r}")
        if np.count_nonzero(~(wl > 0.0)):
            raise ValueError("wavelength must be positive")
        np.broadcast(theta, wl)


@dataclass(frozen=True)
class LayerStack:
    """Coating stack: ambient index, ordered (index, thickness_nm) layers, substrate.

    The first layer in the list is the one the light meets first.  An empty
    layer list is a bare ambient/substrate interface.  `indices` (ambient,
    layers..., substrate) and `thicknesses` hold the same values as arrays.
    """

    ambient: complex
    layers: tuple
    substrate: complex
    indices: np.ndarray = field(init=False, repr=False, compare=False)
    thicknesses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple((complex(n), float(d)) for n, d in self.layers))
        if complex(self.ambient).real <= 0.0 or complex(self.substrate).real <= 0.0:
            raise ValueError("ambient/substrate indices need a positive real part")
        for i, (_, d) in enumerate(self.layers):
            if not d > 0.0:
                raise ValueError(f"layer {i}: thickness must be positive, got {d!r}")
        media = [self.ambient, *(n for n, _ in self.layers), self.substrate]
        object.__setattr__(self, "indices", np.array(media, complex))
        object.__setattr__(self, "thicknesses", np.array([d for _, d in self.layers], float))


def _cos_refracted(n0, n, theta_i):
    """cos of the transmitted angle, branch chosen so Im(n cos) >= 0.

    That branch makes the transmitted/evanescent wave decay away from the
    interface, which keeps the layer recursions numerically stable.  `n` may
    be an array of media, so sin(theta_i) is taken once for all of them.
    """
    s = n0 * np.sin(theta_i) / n
    c = np.sqrt(np.asarray(1.0 - s * s, complex))
    nc = n * c
    return np.where((nc.imag < 0.0) | ((nc.imag == 0.0) & (nc.real < 0.0)), -c, c)[()]


def _fresnel_amplitudes(n0, n, cos_i, cos_t):
    a, b, c, d = n0 * cos_i, n * cos_t, n * cos_i, n0 * cos_t
    return (a - b) / (a + b), (c - d) / (c + d)


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
    """Indices and cosines of every medium (ambient, layers..., substrate), the
    layers' phase thicknesses, and a converter to the loop's per-layer rows.

    The arrays carry the media or layers on axis 0, ahead of the ray grid's
    axes.  Rows are Python complex lists for one ray and arrays for a grid.
    """
    theta, wl = np.broadcast_arrays(ray.theta_i, ray.wavelength_nm)
    grid = (1,) * theta.ndim
    n = stack.indices.reshape((-1,) + grid)
    cos = _cos_refracted(n[0], n, theta)
    cos[0] = np.cos(theta)
    beta = 2.0 * math.pi / wl * n[1:-1] * stack.thicknesses.reshape((-1,) + grid) * cos[1:-1]
    return n, cos, beta, (lambda a: a) if grid else np.ndarray.tolist


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
    n, cos, beta, rows = _media(stack, ray)
    eta = np.stack((n * cos, n / cos))  # s and p admittances of every medium
    beta, eta_layers = beta[::-1], eta[:, -2:0:-1]  # substrate side first
    phase = np.exp(2j * beta)
    half_diff = (1.0 - phase) / 2.0
    diag = rows((1.0 + phase) / 2.0)
    r = []
    # M = [[d, m01], [m10, d]]; e holds this polarization's eta_0, eta_sub
    for e, m01s, m10s in zip(rows(eta[:, [0, -1]]), rows(half_diff / eta_layers),
                             rows(half_diff * eta_layers)):
        b, c = 1.0, e[1]
        for d, m01, m10 in zip(diag, m01s, m10s):
            b, c = d * b + m01 * c, m10 * b + d * c
        r.append((e[0] * b - c) / (e[0] * b + c))
    return MirrorResponse(r[0], -r[1])


@_finite_response
def stack_response_oracle(stack, ray):
    """Multilayer reflectances by recursive single-interface composition.

    Starting from the substrate, each boundary's Fresnel coefficient is folded
    in through r <- (r_j + r exp(2 i b)) / (1 + r_j r exp(2 i b)).  Entirely
    independent of the characteristic-matrix code path; used to cross-check it.
    """
    n, cos, beta, rows = _media(stack, ray)
    boundaries = np.stack(_fresnel_amplitudes(n[:-1], n[1:], cos[:-1], cos[1:]))[:, ::-1]
    phase = rows(np.exp(2j * beta)[::-1])
    out = []
    for r_b in rows(boundaries):  # s, then p; boundaries bottom-up, substrate first
        r = r_b[0]
        for r_j, ph in zip(r_b[1:], phase):
            rph = r * ph
            r = (r_j + rph) / (1.0 + r_j * rph)
        out.append(r)
    return MirrorResponse(out[0], out[1])


def quarter_wave_stack(
    n_high=2.10,
    n_low=1.45,
    pairs=25,
    wavelength_nm=780.0,
    design_angle=math.radians(45.0),
    n_ambient=1.0,
    n_substrate=1.52,
):
    """Alternating high/low stack, each layer a quarter wave at the design angle.

    Layer thickness is lambda / (4 n cos t) with t the internal angle, so the
    stopband of both polarizations is centered on the design wavelength at the
    design incidence.  The default 25 pairs (50 layers) of Ta2O5/SiO2-class
    indices stands in for a commercial high reflector at 45 degrees / 780 nm.
    """
    layers = []
    for _ in range(pairs):
        for n in (n_high, n_low):
            c = _cos_refracted(n_ambient, n, design_angle).real
            layers.append((n, wavelength_nm / (4.0 * n * c)))
    return LayerStack(n_ambient, tuple(layers), n_substrate)


# --- stack description files ------------------------------------------------
#
# Plain text, one definition per line:
#   ambient   <n_real> <n_imag>
#   substrate <n_real> <n_imag>
#   <n_real> <n_imag> <thickness_nm>     (one line per layer, in light order)
# '#' starts a comment; blank lines are ignored.


def _finite_floats(tokens):
    values = [float(t) for t in tokens]
    if not all(map(math.isfinite, values)):
        raise ValueError
    return values


def parse_stack_text(text):
    ambient = None
    substrate = None
    layers = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in ("ambient", "substrate"):
            if len(tokens) != 3:
                raise StackParseError(line_no, f"'{tokens[0]}' needs 2 numbers, got {len(tokens) - 1}")
            try:
                value = complex(*_finite_floats(tokens[1:]))
            except ValueError:
                raise StackParseError(
                    line_no, f"non-numeric or non-finite index in {raw.strip()!r}"
                ) from None
            if tokens[0] == "ambient":
                if ambient is not None:
                    raise StackParseError(line_no, "duplicate 'ambient' line")
                ambient = value
            else:
                if substrate is not None:
                    raise StackParseError(line_no, "duplicate 'substrate' line")
                substrate = value
        else:
            if len(tokens) != 3:
                raise StackParseError(
                    line_no, f"layer line needs 'n_real n_imag thickness_nm', got {raw.strip()!r}"
                )
            try:
                n_re, n_im, d = _finite_floats(tokens)
            except ValueError:
                raise StackParseError(
                    line_no, f"non-numeric or non-finite layer field in {raw.strip()!r}"
                ) from None
            if d <= 0.0:
                raise StackParseError(line_no, f"layer thickness must be positive, got {d!r}")
            if n_re == n_im == 0.0:
                raise StackParseError(line_no, "layer index must be non-zero")
            layers.append((complex(n_re, n_im), d))
    if ambient is None:
        raise StackParseError(0, "missing 'ambient' line")
    if substrate is None:
        raise StackParseError(0, "missing 'substrate' line")
    return LayerStack(ambient, tuple(layers), substrate)


def load_stack_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_stack_text(fh.read())
