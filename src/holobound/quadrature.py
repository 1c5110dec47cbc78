"""Polar quadrature on planar regions: disks, masked disks, truncated planes.

Every rule is a tensor product of Gauss-Legendre in radius (with the area
jacobian r folded into the weights) and a uniform trapezoid rule in angle on
D(center, radius), held lazily: a :class:`QuadratureRule` stores the
centre, the radius and the two node counts.  ``rings()`` gives the radii and
radial weights, which is all the kernel's Gram assembly reads; it samples
the density on each ring at its own angle count (``angle_levels``), so no
node array is built on that path.  ``nodes`` and ``weights`` are built, and
cached, the first time ``integrate`` or a caller asks for them.
``disk_rule`` and ``truncated_plane_rule`` return the plain rule;
``masked_disk_rule`` drops the nodes inside an excluded disk.  Centering a
rule on a logarithmic singularity makes the weighted radial integrand
r*log(r) bounded, so no special singular weights are needed.

Gauss-Legendre nodes are found per node, not from an eigensolve: Tricomi's
asymptotic guesses, then Newton's method on the three-term recurrence,
vectorised over the nodes in (0, 1) and mirrored (Hale and Townsend, SIAM J.
Sci. Comput. 35, 2013).  That is O(n^2) work instead of the O(n^3) companion
matrix eigensolve, and the weights 2 / ((1 - x^2) P_n'(x)^2) come out more
accurate: at n = 512 they are within 2e-12 relative of a 40-digit reference,
where the eigensolve's are within 1.1e-10.

``random_disk_points`` returns, bit for bit, the points that
``np.random.default_rng(seed)`` gives (``uniform(size=count)`` for the radii,
then ``uniform(0, 2 pi, size=count)`` for the angles), without importing
``numpy.random``: that import took about 15 ms on a 2-vCPU Xeon, more than
a 200-point grid.  Only numpy's bit generator is stable across releases
(NEP 19), so the points also stop depending on its ``Generator``.  The seed
is mixed as numpy's
``SeedSequence`` does, in 32-bit words, into four 64-bit words w0..w3; PCG64
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014) then starts from
``inc = 2 (w2 2^64 + w3) + 1`` and ``state = (inc + w0 2^64 + w1) a + inc``
mod 2^128.  Each draw steps ``state = a state + inc`` and outputs
``rotr64(hi ^ lo, hi >> 58)`` of the new state, and the double is
``(out >> 11) 2^-53``.  The stream is drawn in blocks of uint64 arrays.  With
``state = 2^64 h + l``, the low half is a 64-bit LCG, so ``l_k = a_lo^k l_0 +
c_lo (1 + ... + a_lo^(k-1))`` from one table of powers, and the high half is
``h_k = a_lo h_(k-1) + d_k`` with ``d_k = mulhi(a_lo, l_(k-1)) + a_hi l_(k-1)
+ c_hi + carry``, where the carry of the low sum is ``[l_k < a_lo l_(k-1)]``
and ``mulhi`` comes from four 32-bit partial products.  ``a_lo`` is odd, so
it is invertible mod 2^64 and ``h_k = a_lo^k (h_0 + sum_(j<=k) a_lo^-j d_j)``
is one cumulative sum.  Every product wraps mod 2^64 in the array arithmetic,
as the derivation needs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadratureRule",
    "NonFiniteIntegrandError",
    "gauss_legendre",
    "angle_levels",
    "disk_rule",
    "masked_disk_rule",
    "truncated_plane_rule",
    "integrate",
    "integrate_with_error",
    "half_resolution",
    "disk_lattice",
    "sunflower_points",
    "random_disk_points",
]


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or inf at a quadrature node."""

    def __init__(self, index: int, node: complex, value):
        self.index = int(index)
        self.node = complex(node)
        self.value = value
        super().__init__(
            f"integrand is not finite at node #{self.index}, z = {self.node!r} "
            f"(value {value!r})"
        )


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Polar tensor rule on D(center, radius): ``n_r`` Gauss-Legendre radii
    times ``n_theta`` equispaced angles, node i * n_theta + j at
    center + r_i e^{2 pi i j / n_theta} with weight w_i 2 pi / n_theta.

    ``excluded``, when set, is the (center, radius) of a disk whose nodes
    the rule drops (``masked_disk_rule``).  The node and weight arrays are
    built on first use and cached; rules are otherwise immutable, and
    ``integrate`` is pure, with numpy's pairwise summation, so results are
    stable to about 1e-13 relative regardless of scheduling.
    """

    center: complex
    radius: float
    n_r: int
    n_theta: int
    excluded: tuple | None = None

    def rings(self):
        """(c, r, w): the centre, the ring radii r_i (ascending) and the
        radial weights w_i, with the jacobian r_i folded in.

        Raises ValueError for a masked rule: its dropped nodes break the rings.
        """
        if self.excluded is not None:
            raise ValueError(f"a masked_disk rule (excluding {self.excluded!r}) "
                             f"is not a polar tensor rule")
        return (self.center, *self._radial())

    def _radial(self):
        x, u = gauss_legendre(self.n_r)
        r = 0.5 * self.radius * (x + 1.0)
        return r, 0.5 * self.radius * u * r

    @functools.cached_property
    def _tensor(self):
        r, w_r = self._radial()
        nodes = (self.center
                 + np.outer(r, _angles(np.arange(self.n_theta), self.n_theta))).ravel()
        weights = np.repeat(w_r * (2.0 * np.pi / self.n_theta), self.n_theta)
        if self.excluded is not None:
            excluded_center, excluded_radius = self.excluded
            keep = np.abs(nodes - excluded_center) >= excluded_radius
            nodes, weights = nodes[keep], weights[keep]
        return nodes, weights

    @property
    def nodes(self) -> np.ndarray:
        return self._tensor[0]

    @property
    def weights(self) -> np.ndarray:
        return self._tensor[1]


NEWTON_CAP = 20  # Newton steps allowed; from Tricomi's guesses 3 or 4 suffice


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for x in (-1, 1) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) / (j + 1)) * x * p - (j / (j + 1)) * p_prev
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], computed once
    per n.

    Newton's method on P_n from Tricomi's guesses, for the nodes in [0, 1)
    only; the others are their mirror images.  The arrays are shared by every
    caller, so they are read-only.
    """
    # the k-th largest root is near cos(theta_k), k = 1..ceil(n / 2)
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # the middle root of an odd P_n, which Newton leaves fixed
    for _ in range(NEWTON_CAP):
        p, dp = _legendre_with_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 4.0 * np.finfo(float).eps:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration for n = {n} did not "
                              f"converge in {NEWTON_CAP} steps (last step "
                              f"{np.max(np.abs(dx)):.3e})")
    _, dp = _legendre_with_derivative(n, x)  # at the converged nodes
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)
    # for odd n the mirror image must not repeat the root 0
    inner = len(x) - n % 2
    nodes = np.concatenate((-x[:inner], x[::-1]))
    weights = np.concatenate((w[:inner], w[::-1]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _angles(j: np.ndarray, m: int) -> np.ndarray:
    """e^{2 pi i j / m}.  The angle 2 pi (2j) / (2m) rounds to the same double
    as 2 pi j / m, so an angle count's samples recur bit for bit at twice it."""
    return np.exp(2j * math.pi * j / m)


def angle_levels(f, radii: np.ndarray, count: int, cap: int):
    """The doubling loop of the angular tail rules: samples of f on the
    circles |z| = radii at count, 2 count, 4 count, ... angles, up to cap.

    Yields (m, values) with values[..., j] = f(radii[..., None] e^{2 pi i j / m}).
    Past the first level f is called only at the m / 2 new odd angles, and
    the previous samples fill the even ones.  ``next()`` refines every
    circle; ``send(rows)`` refines only radii[rows] (an index or mask on the
    leading axis), so a caller may stop each circle at its own count.  The
    loop ends after the level with cap angles, or, when cap is not count
    times a power of two, after the last level below it.
    """
    def sample(j, m):
        points = radii[..., None] * _angles(j, m)
        return np.asarray(f(points.ravel()), dtype=float).reshape(points.shape)

    m, values = count, sample(np.arange(count), count)
    while True:
        rows = yield m, values
        if 2 * m > cap:
            return
        if rows is not None:
            radii, values = radii[rows], values[rows]
        finer = np.empty(values.shape[:-1] + (2 * m,))
        finer[..., ::2] = values
        finer[..., 1::2] = sample(np.arange(1, 2 * m, 2), 2 * m)
        m, values = 2 * m, finer


def _disk(center: complex, radius: float, n_r: int, n_theta: int) -> QuadratureRule:
    """Gauss-Legendre x trapezoid rule on D(center, radius).

    Radial nodes are strictly interior to (0, radius), so no node ever lands
    on the disk center.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    if n_theta < 4:
        raise ValueError(f"n_theta must be >= 4, got {n_theta}")
    return QuadratureRule(complex(center), float(radius), int(n_r), int(n_theta))


def disk_rule(center: complex, radius: float, n_r: int, n_theta: int) -> QuadratureRule:
    """Polar rule on D(center, radius).

    Exact for polynomials in (x, y) of total degree < min(2*n_r, n_theta),
    and convergent (error -> 0 as n_r grows) for bounded r*log(r)-type
    radial integrands such as the fundamental solution of the Laplacian.
    """
    return _disk(center, radius, n_r, n_theta)


def masked_disk_rule(
    center: complex,
    radius: float,
    excluded_center: complex,
    excluded_radius: float,
    n_r: int,
    n_theta: int,
) -> QuadratureRule:
    """Rule on D(center, radius) \\ D(excluded_center, excluded_radius).

    Implemented by dropping disk-rule nodes that fall strictly inside the
    excluded disk (indicator mask, no boundary-fitted mesh).  The masking
    error near the circular cut is O(1/n_r); callers wanting masked-region
    accuracy comparable to a plain disk rule should use about 4x the
    resolution.
    """
    if excluded_radius <= 0:
        raise ValueError(f"excluded_radius must be positive, got {excluded_radius}")
    return replace(_disk(center, radius, n_r, n_theta),
                   excluded=(complex(excluded_center), float(excluded_radius)))


def truncated_plane_rule(radius: float, n_r: int, n_theta: int) -> QuadratureRule:
    """Polar rule on D(0, radius) standing in for an integral over the plane.

    The caller chooses ``radius`` large enough that the weighted integrand is
    negligible outside; ``truncation_radius`` provides such radii.  The rule
    is ``disk_rule(0, radius, n_r, n_theta)``.
    """
    return _disk(0j, radius, n_r, n_theta)


def integrate(rule: QuadratureRule, f):
    """Sum of weights * f(nodes).

    f is called once on the whole node array; a scalar result is broadcast
    over the nodes.  Raises :class:`NonFiniteIntegrandError` identifying the
    first offending node if f is not finite there (this catches singular
    integrands whose singularity was not absorbed by the rule's polar
    centering).
    """
    vals = np.asarray(f(rule.nodes))
    if vals.shape != rule.nodes.shape:
        vals = np.broadcast_to(vals, rule.nodes.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteIntegrandError(idx, rule.nodes[idx], vals[idx])
    total = np.sum(rule.weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def half_resolution(rule: QuadratureRule) -> QuadratureRule:
    """Companion rule at half the radial and angular resolution."""
    n_r, n_t = max(2, rule.n_r // 2), max(4, rule.n_theta // 2)
    if rule.excluded is None:
        return disk_rule(rule.center, rule.radius, n_r, n_t)
    return masked_disk_rule(rule.center, rule.radius, *rule.excluded, n_r, n_t)


def integrate_with_error(rule: QuadratureRule, f):
    """Integrate and attach a Richardson-style error estimate.

    The estimate is the absolute difference against a half-resolution
    companion rule; for the smooth and r*log(r) integrands used here it is
    conservative (the fine rule is much more accurate than the coarse one).
    """
    value = integrate(rule, f)
    coarse = integrate(half_resolution(rule), f)
    return value, abs(value - coarse)


# ---------------------------------------------------------------------------
# Planar point sets (evaluation grids, not quadrature nodes)
# ---------------------------------------------------------------------------

def disk_lattice(radius: float, spacing: float) -> np.ndarray:
    """Square lattice of the given spacing clipped to the closed disk D(0, radius)."""
    n = int(math.floor(radius / spacing + 1e-12))
    ticks = spacing * np.arange(-n, n + 1)
    x, y = np.meshgrid(ticks, ticks)
    pts = (x + 1j * y).ravel()
    return pts[np.abs(pts) <= radius + 1e-12]

def sunflower_points(count: int, radius: float) -> np.ndarray:
    """Deterministic quasi-uniform points in D(0, radius) (golden-angle spiral)."""
    k = np.arange(count, dtype=float)
    r = radius * np.sqrt((k + 0.5) / count)
    theta = k * (math.pi * (3.0 - math.sqrt(5.0)))
    return r * np.exp(1j * theta)

def random_disk_points(count: int, radius: float, seed: int) -> np.ndarray:
    """Uniform random points in D(0, radius), reproducible from the seed: the
    points of ``np.random.default_rng(seed)`` (module docstring).

    A negative seed raises ValueError, a seed that is not an integer TypeError.
    """
    u = _pcg64_doubles(seed, 2 * count)
    r = radius * np.sqrt(u[:count])
    # numpy's uniform(0, 2 pi) is 0 + (2 pi - 0) d, which is exactly 2 pi d
    theta = (2.0 * math.pi) * u[count:]
    return r * np.exp(1j * theta)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# draws per block in _pcg64_doubles: on a 2-vCPU Xeon, blocks of 2^13 to 2^15
# took 48-59 ms per 2e6 draws, 2^11 took 107 ms and 2^17 took 83 ms
_DRAW_BLOCK = 1 << 13


def _seed_words(seed) -> list[int]:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for an
    integer seed, on Python ints masked to 32 bits."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return v ^ v >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for word in entropy[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(word))
    hb, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ hb
        hb = hb * 0x58F38DED & _M32
        v = v * hb & _M32
        words.append(v ^ v >> 16)
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]


def _pcg64_doubles(seed, count: int) -> np.ndarray:
    """The first ``count`` doubles of numpy's ``PCG64(seed)``, drawn
    ``_DRAW_BLOCK`` at a time (module docstring)."""
    w = _seed_words(seed)
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    u64 = np.uint64
    a_lo, a_hi = _PCG_MULT & _M64, _PCG_MULT >> 64
    a0, a1 = a_lo & _M32, a_lo >> 32
    c_hi = u64(inc >> 64)
    n = max(1, min(count, _DRAW_BLOCK))
    powers = np.multiply.accumulate(np.full(n, a_lo, dtype=u64))  # a_lo^k, k = 1..n
    inverses = np.multiply.accumulate(np.full(n, pow(a_lo, -1, 1 << 64), dtype=u64))
    offsets = u64(inc & _M64) * np.cumsum(np.concatenate(([u64(1)], powers[:-1])))
    h, l = u64(state >> 64), u64(state & _M64)
    out = np.empty(count)
    for start in range(0, count, n):
        m = min(n, count - start)
        lk = powers[:m] * l + offsets[:m]
        lp = np.concatenate(([l], lk[:-1]))
        x0, x1 = lp & _M32, lp >> 32
        p01, p10 = a0 * x1, a1 * x0
        mid = (a0 * x0 >> 32) + (p01 & _M32) + (p10 & _M32)
        d = (a1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
             + a_hi * lp + c_hi + (lk < a_lo * lp))
        hk = powers[:m] * (h + np.cumsum(inverses[:m] * d))
        x, rot = hk ^ lk, hk >> 58
        out[start:start + m] = (x >> rot | x << ((64 - rot) & 63)) >> 11
        h, l = hk[-1], lk[-1]
    return out * 2.0 ** -53
