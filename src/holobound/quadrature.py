"""Polar quadrature on planar regions: disks, masked disks, truncated planes.

Every rule is held lazily: a :class:`QuadratureRule` stores the centre, the
radius and the two node counts.  ``integrate`` sums over a tensor product of
Gauss-Legendre in radius (with the area jacobian r folded into the weights)
and a uniform trapezoid rule in angle on D(center, radius); its ``nodes``
and ``weights`` are built, and cached, the first time ``integrate`` or a
caller asks for them.  ``disk_rule`` and ``truncated_plane_rule`` return the
plain rule; ``masked_disk_rule`` drops the nodes inside an excluded disk.
Centering a rule on a logarithmic singularity makes the weighted radial
integrand r*log(r) bounded, so no special singular weights are needed.

The kernel's Gram assembly reads only a rule's disk and its two counts: it
puts nested Clenshaw-Curtis rings of at most n_r rings on the disk
(``clenshaw_curtis``) and samples each ring at its own angle count, at most
n_theta (``angle_levels``), so no node array is built on that path.
``clenshaw_curtis(n)`` is the (n + 1)-point rule on [0, 1] for integrals of
x f(x), from one inverse FFT of the even Chebyshev moments (Waldvogel, BIT
46, 2006).  Its nodes x_k = sin^2(pi k / 2n) nest bit for bit: pi (2k) / 4n
rounds to the same double as pi k / 2n, so the rule at n is the rule at 2n
read at its even nodes, with other weights.  The jacobian x gives the node
x = 0 weight zero, so that node is dropped, and no integrand is evaluated
there.

Gauss-Legendre rules come from the finite cosine series of P_n, not from
its three-term recurrence (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013,
solve for the angles theta = arccos x).  With g_k = C(2k, k) / 4^k,
f(t) = P_n(cos t) = sum_{k=0..n} g_k g_(n-k) cos((n - 2k) t), so
f^(p)(t) = Re(i^p e^{i n t} sum_k g_k g_(n-k) (n - 2k)^p e^{-2ikt}).  At the
angles phi_j = pi (4j - 1) / (4n + 2), where Tricomi's asymptotic guesses
start, that sum is entry 4j - 1 of a DFT of length 4n + 2, so one real FFT
of ten rows gives f, f', ..., f^(9) at every phi_j.  Each root theta_j lies
within 0.049 / n of phi_j (every n <= 4096), so Newton's method on the
degree-8 Taylor polynomial in delta_j = theta_j - phi_j converges in three
steps (a fourth confirms it), to within 1e-17 of the root.  The weight is
2 / f'(theta_j)^2, because (1 - x^2) P_n'(x)^2 = f'(theta)^2.  Two details
keep the rule at rounding level.  A running product for g_k drifts to
4e-15 by k = 4096, which puts the weight sum 1.2e-14 off 2, so from k = 40
on g_k comes from the asymptotic series of log(g_k sqrt(pi k)).  And
cos(phi_j + delta_j), with phi_j rounded, misses the nodes by 1.7e-16 to
3.3e-16 at n = 16 to 512, so phi_j is split into an exact product t_j c_hi
and a remainder s that carries pi's low word, and x_j = cos(t_j c_hi) -
(sin(t_j c_hi) sin(s) + cos(t_j c_hi) 2 sin^2(s / 2)).  At n = 64 to 1024
the nodes are within 1.1e-16 and the weights within 3.3e-15 relative of a
40-digit reference, where the recurrence's weights were within 3.7e-14 to
3.4e-12 and numpy's eigensolve's are within 1.1e-10 at n = 512.  The cost
is O(n log n): about 1 ms for n = 512 in a fresh process on a 2-vCPU Xeon,
against 5-9 ms for Newton on the recurrence.

``random_disk_points`` draws its points from the standard library's
``random.Random(seed)``, radii first; Python keeps the ``random()`` stream of
an integer seed the same across versions.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadratureRule",
    "NonFiniteIntegrandError",
    "gauss_legendre",
    "clenshaw_curtis",
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


@dataclass(frozen=True)
class QuadratureRule:
    """Polar tensor rule on D(center, radius): ``n_r`` Gauss-Legendre radii
    times ``n_theta`` equispaced angles, node i * n_theta + j at
    center + r_i e^{2 pi i j / n_theta} with weight w_i 2 pi / n_theta.
    The kernel reads only the disk, ``n_r`` as its finest ring count and
    ``n_theta`` as its largest angle count (module docstring).

    ``excluded``, when set, is the (center, radius) of a disk whose nodes
    the rule drops (``masked_disk_rule``).  The node and weight arrays are
    built on first use and cached; rules are otherwise immutable, and
    ``integrate`` is pure, with numpy's pairwise summation, so results are
    stable to about 1e-13 relative regardless of scheduling.

    Rules compare and hash by value, by the five fields alone: the nodes
    and weights are functions of them, and the lazy arrays are a cached
    property, not a field.  So two equal rules built apart key one entry of
    a cache keyed on the rule (``kernel.build_kernel_estimate``).
    """

    center: complex
    radius: float
    n_r: int
    n_theta: int
    excluded: tuple | None = None

    def _radial(self):
        """The Gauss-Legendre radii r_i (ascending) and the radial weights
        w_i, with the jacobian r_i folded in."""
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


NEWTON_CAP = 20  # Newton steps allowed; from the angles phi_j 3 or 4 suffice
_TAYLOR = 9  # terms of the Taylor polynomial in theta - phi_j, degrees 0..8
_PI_LO = 1.2246467991473532e-16  # pi - float(pi)


def _central_binomials(n: int) -> np.ndarray:
    """g_k = C(2k, k) / 4^k for k = 0..n: a running product below k = 40 and
    the asymptotic series of log(g_k sqrt(pi k)) from there, each within
    3e-16 relative (the running product drifts to 4e-15 by k = 4096)."""
    k = np.arange(1.0, n + 1)
    head, tail = k[:39], k[39:]
    series = -1 / (8 * tail) + 1 / (192 * tail ** 3) - 1 / (640 * tail ** 5) \
        + 17 / (14336 * tail ** 7)
    return np.concatenate(([1.0], np.cumprod((2 * head - 1) / (2 * head)),
                           np.exp(series) / np.sqrt(np.pi * tail)))


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], computed once
    per n.

    Newton's method in the angle theta = arccos x on the Taylor polynomials
    of f(t) = P_n(cos t) about phi_j, whose derivatives come from one FFT of
    P_n's cosine series (module docstring), for the nodes in [0, 1) only;
    the others are their mirror images.  The arrays are shared by every
    caller, so they are read-only.
    """
    # row p holds the coefficients g_k g_(n-k) (n - 2k)^p of f^(p)'s series
    rows = np.empty((_TAYLOR + 1, n + 1))
    g, frequency = _central_binomials(n), n - 2.0 * np.arange(n + 1)
    rows[0] = g * g[::-1]
    for p in range(1, _TAYLOR + 1):
        rows[p] = rows[p - 1] * frequency
    # the j-th largest root is near cos(phi_j), phi_j = pi t_j / size
    size = 4 * n + 2
    t = 4 * np.arange(1, (n + 1) // 2 + 1) - 1
    turn = np.exp(1j * np.pi * (n * t % (2 * size)) / size)  # e^{i n phi_j}
    # f^(p)(phi_j) = Re(i^p e^{i n phi_j} S_p[t_j]), S_p the DFT of row p
    power_of_i = np.array([1, 1j, -1, -1j])[np.arange(_TAYLOR + 1) % 4, None]
    f = (power_of_i * turn * np.fft.rfft(rows, size)[:, t]).real
    factor = 1.0 / np.arange(1, _TAYLOR)

    def taylor(coef, d):
        """sum_{p < _TAYLOR} coef[p] d^p / p!, by Horner's rule."""
        acc = coef[_TAYLOR - 1]
        for p in range(_TAYLOR - 2, -1, -1):
            acc = coef[p] + factor[p] * d * acc
        return acc

    delta = np.zeros(len(t))  # theta_j - phi_j
    for _ in range(NEWTON_CAP):
        step = taylor(f, delta) / taylor(f[1:], delta)
        delta = delta - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration for n = {n} did not "
                              f"converge in {NEWTON_CAP} steps (last step "
                              f"{np.max(np.abs(step)):.3e})")
    # (1 - x^2) P_n'(x)^2 = f'(theta)^2
    w = 2.0 / taylor(f[1:], delta) ** 2
    # x_j = cos(phi_hi + s) with phi_hi = t_j c_hi exact: c_hi is pi / size
    # split to 26 bits, and s carries the rest of phi_j
    c = math.pi / size
    c_hi = c * 134217729.0 - (c * 134217729.0 - c)
    c_lo = ((math.pi - c_hi * size) + _PI_LO) / size
    phi_hi, s = t * c_hi, t * c_lo + delta
    cos_hi, sin_hi = np.cos(phi_hi), np.sin(phi_hi)
    x = cos_hi - (sin_hi * np.sin(s) + cos_hi * (2.0 * np.sin(0.5 * s) ** 2))
    if n % 2:
        x[-1] = 0.0  # the middle root of an odd P_n
    # for odd n the mirror image must not repeat the root 0
    inner = len(x) - n % 2
    nodes = np.concatenate((-x[:inner], x[::-1]))
    weights = np.concatenate((w[:inner], w[::-1]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=32)
def clenshaw_curtis(n: int):
    """Nodes x_k = sin^2(pi k / 2n), k = 1..n (ascending, x_n = 1), and
    weights u_k with sum u_k f(x_k) the (n + 1)-point Clenshaw-Curtis value
    of the integral of x f(x) over [0, 1]; the node 0, of weight zero, is
    dropped.  Computed once per n, from one inverse FFT of the integrals
    2 / (1 - 4j^2) of T_2j over [-1, 1] (Waldvogel); the arrays are shared
    by every caller, so they are read-only.
    """
    moments = 2.0 / (1.0 - (2.0 * np.arange(n // 2 + 1)) ** 2)
    w = np.fft.ifft(np.concatenate((moments, moments[(n + 1) // 2 - 1:0:-1]))).real
    w = np.append(w[1:], 0.5 * w[0])  # the weights on [-1, 1] of k = 1..n
    x = np.sin(math.pi * np.arange(1, n + 1) / (2 * n)) ** 2
    weights = 0.5 * w * x
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def _angles(j: np.ndarray, m: int) -> np.ndarray:
    """e^{2 pi i j / m}.  The angle 2 pi (2j) / (2m) rounds to the same double
    as 2 pi j / m, so an angle count's values recur bit for bit at twice it."""
    return np.exp(2j * math.pi * j / m)


def angle_levels(f, radii: np.ndarray, count: int, cap: int):
    """The doubling loop of the angular tail rules: values of f on the
    circles |z| = radii at count, 2 count, 4 count, ... angles, up to cap.

    Yields (m, values) with values[..., j] = f(radii[..., None] e^{2 pi i j / m}).
    Past the first level f is called only at the m / 2 new odd angles, and
    the previous values fill the even ones.  ``next()`` refines every
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
    """Uniform random points in D(0, radius) from ``random.Random(seed)``: radii
    from its first ``count`` doubles, angles from the next ``count``.  A
    negative seed raises ValueError, a seed that is not an integer TypeError."""
    seed = operator.index(seed)  # Random would also take str, float and bytes
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # random() never returns the sentinel -1.0, so fromiter stops at the count
    u = np.fromiter(iter(random.Random(seed).random, -1.0), float, 2 * count)
    return radius * np.sqrt(u[:count]) * np.exp(2j * math.pi * u[count:])
