"""Weight exponents phi on the complex plane with exact Laplacians.

One table lists each family's parameters and defaults, its phi and lap(phi)
in closed form, the exact range [m, M] of lap(phi) over the whole plane and
a point where m is attained.  That range is the one source of the class
0 <= lap(phi) <= M: a weight is in it exactly when m >= 0.  ``oscillatory``
with eps > 2a has m < 0, which every experiment needing the class rejects.
One builder serves the constructors, the JSON reader and translation, so a
parameter the family does not take is rejected on every path.  Every family
keeps a > 0 (1/t for ``gaussian``), so exp(-phi) decays like a Gaussian and
every monomial is square-integrable.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .greens import LogPotential, cutoff_g

__all__ = [
    "Check",
    "ValidationReport",
    "ScalarField",
    "WeightFunction",
    "WeightError",
    "fd_laplacian",
    "stencil_points",
    "stencil_laplacian",
    "translate_weight",
    "truncation_radius",
    "normalized_gaussian",
]

NEGLIGIBLE_LOG = math.log(1e-18)
# the cap on the rings per radial piece of the potential_defined weight's
# Gamma * psi, which is built on the first evaluation of phi: the ladder's
# levels up to 2^9 + 1 rings; the bump's stops at 65 (one live column)
POTENTIAL_RESOLUTION = 513
REQUIRED = None  # the default of a family parameter that has none


class WeightError(ValueError):
    """Invalid weight parameters or an unsupported weight operation."""


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a numerical validation: a tuple of checks, passed iff every
    check is ok."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.passed

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued field on the plane, ``fn`` with a scalar result broadcast
    over the points; any support comes from ``fn`` itself, such as the
    factor ``cutoff_g`` that makes psi vanish outside D(0, 2)."""

    fn: Callable

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        vals = np.asarray(self.fn(z), dtype=float)
        if vals.shape != z.shape:
            vals = np.broadcast_to(vals, z.shape).copy()
        return float(vals) if vals.ndim == 0 else vals


def is_number(x, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """Whether x is a JSON number (not a boolean) strictly between lo and hi;
    an integer too large for a float is not."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return lo < float(x) < hi
    except OverflowError:
        return False


def _scalarize(val, z):
    return float(val) if np.ndim(z) == 0 else val


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class WeightFunction:
    """A weight exponent phi with closed-form Laplacian and decay envelope.

    ``params`` holds the family parameters plus a translation offset
    (z0_re, z0_im): the evaluators compute phi(z0 + z), which is how
    translated weights are represented.  Equality, hashing and JSON
    round-trips go through (family, params, laplacian_bounds): the family's
    exact plane-wide range of lap(phi), smallest at ``laplacian_min_at``, or
    a declared wider one with m >= 0.

    ``quadratic`` holds the coefficients (a, b, c, d) of
    phi = a|z|^2 + Re(b z^2 + c z) + d, the offset included, for the
    quadratic families; it is None for the others.
    """

    family: str
    params: tuple
    laplacian_bounds: tuple
    laplacian_min_at: complex = field(compare=False, repr=False)
    _weight_fn: Callable = field(compare=False, repr=False)
    _laplacian_fn: Callable = field(compare=False, repr=False)
    _floor: tuple = field(compare=False, repr=False)
    quadratic: Optional[tuple] = field(compare=False, repr=False, default=None)

    # -- evaluation ---------------------------------------------------------

    def weight(self, z):
        z = np.asarray(z, dtype=complex)
        return _scalarize(self._weight_fn(z), z)

    def laplacian(self, z):
        z = np.asarray(z, dtype=complex)
        vals = np.asarray(self._laplacian_fn(z), dtype=float)
        if vals.shape != z.shape:
            vals = np.broadcast_to(vals, z.shape).copy()
        return _scalarize(vals, z)

    def density(self, z):
        """The weight density exp(-phi)."""
        return np.exp(-self.weight(z))

    # -- structure ----------------------------------------------------------

    @property
    def offset(self) -> complex:
        p = dict(self.params)
        return complex(p.get("z0_re", 0.0), p.get("z0_im", 0.0))

    def base_params(self) -> dict:
        return {k: v for k, v in self.params if k not in ("z0_re", "z0_im")}

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        desc = {"family": self.family, "params": dict(self.params)}
        if self.laplacian_bounds[0] >= 0:  # a negative m is the family's own, never declared
            desc["laplacian_bounds"] = list(self.laplacian_bounds)
        return desc

    @staticmethod
    def from_json(desc: dict) -> "WeightFunction":
        if not isinstance(desc, dict):
            raise WeightError(f"weight description must be an object, got {type(desc).__name__}")
        unknown = set(desc) - {"family", "params", "laplacian_bounds"}
        if unknown:
            raise WeightError(f"unknown weight keys: {sorted(unknown)}")
        params = desc.get("params", {})
        if not isinstance(params, dict):
            raise WeightError(f"weight params must be an object, got {type(params).__name__}")
        params = dict(params)
        for k, v in params.items():
            if not is_number(v):
                raise WeightError(f"weight parameters must be finite numbers, got {k} = {v!r}")
        z0 = complex(params.pop("z0_re", 0.0), params.pop("z0_im", 0.0))
        return _build(desc.get("family"), params, z0, desc.get("laplacian_bounds"))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian(t: float) -> "WeightFunction":
        """phi = |z|^2 / t, the Gaussian exponent; lap(phi) = 4/t."""
        return _build("gaussian", {"t": t})

    @staticmethod
    def gaussian_harmonic(a: float, b: complex = 0j, c: complex = 0j,
                          d: float = 0.0) -> "WeightFunction":
        """phi = a|z|^2 + Re(b z^2 + c z) + d; lap(phi) = 4a (constant).

        Requires |b| < a so that exp(-phi) decays in every direction.
        """
        try:
            b, c = complex(b), complex(c)
        except (OverflowError, TypeError, ValueError):
            raise WeightError("gaussian_harmonic parameters b and c must be complex "
                              "numbers in the float range") from None
        return _build("gaussian_harmonic", {"a": a, "b_re": b.real, "b_im": b.imag,
                                            "c_re": c.real, "c_im": c.imag, "d": d})

    @staticmethod
    def oscillatory(a: float, eps: float) -> "WeightFunction":
        """phi = a|z|^2 + eps cos(x) cos(y); lap(phi) = 4a - 2 eps cos(x) cos(y).

        lap(phi) ranges over [4a - 2 eps, 4a + 2 eps], with the lower end at
        the origin.  The weight is in the class 0 <= lap(phi) <= M when
        eps <= 2a; larger eps is accepted at construction, with its negative
        lower end, so that the experiments have genuine failures to reject.
        """
        return _build("oscillatory", {"a": a, "eps": eps})

    @staticmethod
    def potential_defined(a: float, psi_height: float = 1.0) -> "WeightFunction":
        """phi = a|z|^2 + Gamma * psi for the bump psi = psi_height * g.

        g is the smooth cutoff, so psi is supported in D(0, 2) and
        lap(phi) = 4a + psi(z) exactly.
        """
        return _build("potential_defined", {"a": a, "psi_height": psi_height})


def normalized_gaussian(t: float) -> WeightFunction:
    """Weight whose density exp(-phi) is the normalized Gaussian measure
    (1/(pi t)) exp(-|z|^2/t); the normalization constant is folded into phi.
    """
    if t <= 0:
        raise WeightError(f"t must be positive, got {t}")
    return _build("gaussian_harmonic", {"a": 1.0 / t, "d": math.log(math.pi * t)})


# ---------------------------------------------------------------------------
# Family table and the one builder
# ---------------------------------------------------------------------------

class _ClosedForms(NamedTuple):
    """A family's phi and lap(phi) at offset 0, with their bounds."""

    weight: Callable
    laplacian: Callable
    floor: tuple         # (alpha, beta, gamma): phi >= alpha |z|^2 + beta |z| + gamma
    bounds: tuple        # the exact range (m, M) of lap(phi) over the whole plane
    quadratic: Optional[tuple] = None  # (a, b, c, d): phi = a|z|^2 + Re(b z^2 + c z) + d
    min_at: complex = 0j  # a point where lap(phi) = m, the origin unless given


def _gaussian(t):
    if t <= 0:
        raise WeightError(f"gaussian weight needs t > 0, got {t}")
    return _ClosedForms(
        lambda z: np.abs(z) ** 2 / t,
        lambda z: np.full(np.shape(z), 4.0 / t),
        (1.0 / t, 0.0, 0.0),
        (4.0 / t, 4.0 / t),
        (1.0 / t, 0j, 0j, 0.0),
    )


def _gaussian_harmonic(a, b_re, b_im, c_re, c_im, d):
    b, c = complex(b_re, b_im), complex(c_re, c_im)
    if a <= 0:
        raise WeightError(f"gaussian_harmonic weight needs a > 0, got {a}")
    if abs(b) >= a:
        raise WeightError(
            f"gaussian_harmonic weight needs |b| < a for integrability, "
            f"got |b| = {abs(b)}, a = {a}")
    return _ClosedForms(
        lambda z: a * np.abs(z) ** 2 + np.real(b * z * z + c * z) + d,
        lambda z: np.full(np.shape(z), 4.0 * a),
        (a - abs(b), -abs(c), min(d, 0.0)),
        (4.0 * a, 4.0 * a),
        (a, b, c, d),
    )


def _oscillatory(a, eps):
    if a <= 0:
        raise WeightError(f"oscillatory weight needs a > 0, got {a}")
    if eps < 0:
        raise WeightError(f"oscillatory weight needs eps >= 0, got {eps}")
    return _ClosedForms(
        lambda z: a * np.abs(z) ** 2 + eps * np.cos(np.real(z)) * np.cos(np.imag(z)),
        lambda z: 4.0 * a - 2.0 * eps * np.cos(np.real(z)) * np.cos(np.imag(z)),
        (a, 0.0, -eps),
        (4.0 * a - 2.0 * eps, 4.0 * a + 2.0 * eps),  # m where cos(x) cos(y) = 1
    )


def _potential_defined(a, psi_height):
    if a <= 0:
        raise WeightError(f"potential_defined weight needs a > 0, got {a}")
    if psi_height < 0:
        raise WeightError(f"psi_height must be >= 0, got {psi_height}")
    psi = ScalarField(lambda z: psi_height * cutoff_g(z))
    # built on the first evaluation of phi: the Laplacian, the floor and the
    # bounds are closed forms and never need it
    potential = functools.cache(
        lambda: LogPotential(psi, support_radius=2.0, resolution=POTENTIAL_RESOLUTION))
    return _ClosedForms(
        lambda z: a * np.abs(z) ** 2 + potential().values(z),
        lambda z: 4.0 * a + psi(z),
        (a, 0.0, -psi_height / 4.0),  # Gamma * psi >= -sup(psi)/4 pointwise
        (4.0 * a, 4.0 * a + psi_height),
        min_at=2.0 + 0j,  # psi = 0 for |z| >= 2
    )


# family -> (parameter defaults, closed forms); REQUIRED marks a parameter
# with no default, and the closed forms take the parameters as keywords
_FAMILIES = {
    "gaussian": ({"t": REQUIRED}, _gaussian),
    "gaussian_harmonic": ({"a": REQUIRED, "b_re": 0.0, "b_im": 0.0,
                           "c_re": 0.0, "c_im": 0.0, "d": 0.0}, _gaussian_harmonic),
    "oscillatory": ({"a": REQUIRED, "eps": REQUIRED}, _oscillatory),
    "potential_defined": ({"a": REQUIRED, "psi_height": 1.0}, _potential_defined),
}


def _wrap_offset(fn: Callable, z0: complex) -> Callable:
    if z0 == 0:
        return fn
    return lambda z: fn(z0 + z)


def _build(family, params: dict, z0: complex = 0j, declared=None) -> WeightFunction:
    """The weight phi(z0 + .) of ``family`` with ``params``.

    Unknown and missing parameter names are rejected and defaults filled
    in; ``declared`` Laplacian bounds [m, M], if given, must satisfy
    0 <= m <= M, contain the family's exact range and replace it.
    """
    if not isinstance(family, str) or family not in _FAMILIES:
        raise WeightError(f"unknown weight family {family!r}")
    defaults, closed_forms = _FAMILIES[family]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise WeightError(f"unknown parameters {unknown} for weight family {family!r}, "
                          f"which takes {sorted(defaults)}")
    missing = [k for k, v in defaults.items() if v is REQUIRED and k not in params]
    if missing:
        raise WeightError(f"weight family {family!r} is missing parameters {missing}")
    base = {}
    for k, v in defaults.items():
        try:
            base[k] = float(params.get(k, v))
        except (OverflowError, TypeError, ValueError):
            raise WeightError(f"weight parameter {k} must be a number in the float range, "
                              f"got a value of type {type(params[k]).__name__}") from None
    if not all(map(math.isfinite, base.values())) or not cmath.isfinite(z0):
        raise WeightError(f"weight parameters must be finite, got {base} at offset {z0}")
    forms = closed_forms(**base)
    m, M = forms.bounds
    if declared is not None:
        if not (isinstance(declared, (list, tuple)) and len(declared) == 2
                and all(map(is_number, declared))):
            raise WeightError(f"laplacian_bounds must be a pair of numbers [m, M], "
                              f"got {declared!r}")
        dm, dM = float(declared[0]), float(declared[1])
        if dm > m + 1e-12 or dM < M - 1e-12:
            raise WeightError(
                f"declared laplacian_bounds [{dm}, {dM}] do not contain the "
                f"family bounds [{m}, {M}]")
        if dm < 0 or dm > dM:
            raise WeightError(f"laplacian_bounds must satisfy 0 <= m <= M, got [{dm}, {dM}]")
        m, M = dm, dM
    quadratic = forms.quadratic
    if z0 != 0 and quadratic is not None:
        # phi(z0 + z) = a|z|^2 + Re(b z^2 + c' z) + d'
        a, b, c, d = quadratic
        quadratic = (a, b, c + 2.0 * b * z0 + 2.0 * a * z0.conjugate(),
                     d + a * abs(z0) ** 2 + (b * z0 * z0 + c * z0).real)
    return WeightFunction(
        family=family,
        params=tuple(sorted({**base, "z0_re": z0.real, "z0_im": z0.imag}.items())),
        laplacian_bounds=(m, M),
        laplacian_min_at=forms.min_at - z0,
        _weight_fn=_wrap_offset(forms.weight, z0),
        _laplacian_fn=_wrap_offset(forms.laplacian, z0),
        _floor=forms.floor,
        quadratic=quadratic,
    )


def _floor_min(floor: tuple, shift: float, r: float) -> float:
    """Lower bound for phi on |z| = r, given phi >= alpha s^2 + beta s + gamma
    on |base point| = s and a translation of modulus ``shift``."""
    alpha, beta, gamma = floor
    lo, hi = max(0.0, r - shift), r + shift
    candidates = [lo, hi]
    if alpha > 0:
        vertex = -beta / (2.0 * alpha)
        if lo < vertex < hi:
            candidates.append(vertex)
    return min(alpha * s * s + beta * s + gamma for s in candidates)


def truncation_radius(w: "WeightFunction", max_degree: int) -> float:
    """Radius R past the peak of the envelope exp(-phi(r)) r^(2N+1), N =
    max_degree, where it falls below 1e-18 times the smaller of 1 and its
    peak value, by bisection on the family's floor for phi.

    The log envelope is concave, with its peak at the positive root of
    2 alpha r^2 + (beta - 2 alpha shift) r - (2N+1) = 0, or at the shift if
    that is larger.  Below a peak value of 1 the threshold is relative, so a
    concentrated weight (a Gaussian of small t) keeps a radius past its mass.
    """
    shift = abs(w.offset)
    alpha, beta, _ = floor = w._floor
    k = 2 * max_degree + 1
    b = beta - 2.0 * alpha * shift
    peak = max(shift, (math.sqrt(b * b + 8.0 * alpha * k) - b) / (4.0 * alpha))

    def envelope(r: float) -> float:
        return -_floor_min(floor, shift, r) + k * math.log(r)

    limit = NEGLIGIBLE_LOG + min(0.0, envelope(peak))
    hi = 2.0
    while envelope(hi) > limit:
        hi *= 2.0
        if hi > 1e9:
            raise WeightError("weight decays too slowly for a truncation radius")
    lo = hi / 2.0 if hi > 2.0 else peak
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if envelope(mid) > limit:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * hi:
            break
    return hi


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def fd_laplacian(field, z, h: float):
    """Five-point finite-difference Laplacian, O(h^2) accurate.

    Independent oracle for the closed-form Laplacians: evaluates
    (f(z+h) + f(z-h) + f(z+ih) + f(z-ih) - 4 f(z)) / h^2, with the field
    called once on all five stencil points (:func:`stencil_points`).
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    z = np.asarray(z, dtype=complex)
    out = stencil_laplacian(field(stencil_points(z, h)), h).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def stencil_points(z, h: float) -> np.ndarray:
    """The five-point stencil of step h around the points z, flattened and
    end to end: z, z + h, z - h, z + ih, z - ih."""
    flat = np.asarray(z, dtype=complex).ravel()
    return np.concatenate([flat, flat + h, flat - h, flat + 1j * h, flat - 1j * h])


def stencil_laplacian(values, h: float) -> np.ndarray:
    """The five-point Laplacian, flat, from a field's values at
    :func:`stencil_points` (z, h)."""
    v = np.asarray(values).reshape(5, -1)
    return (v[1] + v[2] + v[3] + v[4] - 4.0 * v[0]) / (h * h)


def translate_weight(w: WeightFunction, z0: complex) -> WeightFunction:
    """The weight phi(z0 + .); Laplacian bounds are translation-invariant.

    Translating by z0 and then by -z0 sets the offset to (offset + z0) - z0
    in floating point.  When offset + z0 is exact in both components, as it
    always is for an untranslated weight (offset 0), that is the original
    offset, and the round trip returns a weight equal to the original, with
    a bit-for-bit evaluator.  Otherwise the offset may move by a rounding:
    0.1 translated by 0.7 and back has offset 0.09999999999999998.
    """
    declared = w.to_json().get("laplacian_bounds")  # as to_json writes them
    return _build(w.family, w.base_params(), w.offset + complex(z0), declared)
