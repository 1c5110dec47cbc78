"""Polar quadrature on planar regions: disks, masked disks, truncated planes.

Every rule is held lazily: a :class:`QuadratureRule` stores the centre, the
radius and the two node counts.  ``integrate`` sums over a tensor product of
Clenshaw-Curtis in radius (with the area jacobian r folded into the weights)
and a uniform trapezoid rule in angle on D(center, radius); its ``nodes``
and ``weights`` are built, and cached, the first time ``integrate`` or a
caller asks for them.  ``disk_rule`` and ``truncated_plane_rule`` return the
plain rule; ``masked_disk_rule`` drops the nodes inside an excluded disk.
Centering a rule on a logarithmic singularity makes the weighted radial
integrand r*log(r) bounded, so no special singular weights are needed.

``clenshaw_curtis(n)`` is the package's one 1-D rule: the (n + 1)-point
rule on [0, 1] for integrals of x f(x), from one inverse FFT of the even
Chebyshev moments (Waldvogel, BIT 46, 2006).  Its nodes x_k = sin^2(pi k / 2n)
nest bit for bit: pi (2k) / 4n rounds to the same double as pi k / 2n, so
the rule at n is the rule at 2n read at its even nodes, with other weights.
The jacobian x gives the node x = 0 weight zero, so that node is dropped,
and no integrand is evaluated there.  Gauss-Legendre is exact to twice the
degree, yet for integrands that are not entire the two often converge alike
(Trefethen, SIAM Review 50, 2008).  A tensor rule with an even n_r is the
finest ring level of the kernel's Gram assembly, which reads only a rule's
disk and its two counts: it puts nested levels of at most n_r rings on the
disk and samples each ring at its own angle count, at most n_theta
(``angle_levels``), so no node array is built on that path.

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
    """Polar tensor rule on D(center, radius): ``n_r`` Clenshaw-Curtis radii
    times ``n_theta`` equispaced angles, node i * n_theta + j at
    center + r_i e^{2 pi i j / n_theta} with weight w_i 2 pi / n_theta.
    The kernel reads only the disk, ``n_r`` as its finest ring count and
    ``n_theta`` as its largest angle count (module docstring).

    ``excluded``, when set, is the (center, radius) of a disk whose nodes
    the rule drops (``masked_disk_rule``); a node on its circle, to
    rounding, keeps half its weight.  The node and weight arrays are
    built on first use and cached; rules are otherwise immutable, and
    ``integrate`` is pure, with numpy's pairwise summation, so results are
    stable to about 1e-13 relative regardless of scheduling.
    """

    center: complex
    radius: float
    n_r: int
    n_theta: int
    excluded: tuple | None = None

    def _radial(self):
        """The Clenshaw-Curtis radii r_i = R x_i (ascending, r = R last) and
        the radial weights w_i = R^2 u_i, with the jacobian r_i folded in."""
        x, u = clenshaw_curtis(self.n_r)
        return self.radius * x, self.radius * self.radius * u

    @functools.cached_property
    def _tensor(self):
        r, w_r = self._radial()
        nodes = (self.center
                 + np.outer(r, _angles(np.arange(self.n_theta), self.n_theta))).ravel()
        weights = np.repeat(w_r * (2.0 * np.pi / self.n_theta), self.n_theta)
        if self.excluded is not None:
            excluded_center, excluded_radius = self.excluded
            d = np.abs(nodes - excluded_center) - excluded_radius
            # a ring on a concentric cut lies on it only to rounding
            weights[np.abs(d) <= 1e-12 * excluded_radius] *= 0.5
            keep = d >= -1e-12 * excluded_radius
            nodes, weights = nodes[keep], weights[keep]
        return nodes, weights

    @property
    def nodes(self) -> np.ndarray:
        return self._tensor[0]

    @property
    def weights(self) -> np.ndarray:
        return self._tensor[1]


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
    """Clenshaw-Curtis x trapezoid rule on D(center, radius).

    Exact for |z - center|^(2p) with 2p <= n_r - 1 and for angular
    frequencies below n_theta.  The outer ring lies on the circle; the node
    r = 0 is dropped, so no node lands on the disk center.
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

    Exact for |z - center|^(2p) with 2p <= n_r - 1 and for angular
    frequencies below n_theta, and convergent (error -> 0 as n_r grows) for
    bounded r*log(r)-type radial integrands such as the fundamental solution
    of the Laplacian.
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
    excluded disk (indicator mask, no boundary-fitted mesh); a node on the
    cut, to rounding, keeps half its weight, as at the end of a trapezoid
    rule.  The masking error near the circular cut is O(1/n_r); callers
    wanting masked-region accuracy comparable to a plain disk rule should
    use about 4x the resolution.
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
