"""Independent slow oracles for the package's fast paths.

``PlanarLogPotential`` evaluates Phi = Gamma * psi by brute-force 2-D
quadrature, with no use of rotational structure, as the check on
``greens.LogPotential`` (Fourier modes in angle, 1-D integrals in radius).
Two fixed rules are used:

  * near field (|z| <= NEAR_REACH): integrate Gamma(zeta) psi(z - zeta) over
    a fixed disk centred on the singularity, which the polar rule absorbs;
  * far field (|z| > NEAR_REACH): swap variables and integrate
    psi(eta) Gamma(z - eta) over the support disk, where the integrand is
    smooth because the singularity sits outside the support.

Both node sets are fixed (independent of z), so the quadrature error is
smooth in z and five-point stencils of the oracle stay clean.  At resolution
256 it agrees with the exact potential to about 2e-8.

``dense_modes_at`` is Phi_k between the rings of a ``greens.LogPotential``
as it was evaluated before the blocked real-view product: one dense
barycentric matrix (``barycentric_rows``, normalised before the product, in
the coordinate x in [-1, 1] of each piece) times the complex mode table,
the check on ``LogPotential._modes_at``.

``ifft_at_gaps`` and ``sequential_ring_sums`` are the set-up of a
``greens.LogPotential`` as it was before the inverse real FFTs and the
blocked scan: the gap values as the real part of one complex inverse FFT
per Gauss-Legendre offset, along the strided ring axis, of the halved and
scaled cosine coefficients, and the ring sums as two Python loops over the
rings with the decay factors as powers.  They are the checks on
``greens._at_gaps`` and ``greens._ring_sums``.

``leggauss`` is numpy's Gauss-Legendre rule from the eigenvalues of the n x n
companion matrix, the check on ``quadrature.gauss_legendre`` (Newton's method
in the angle, on P_n's cosine series); ``mp_gauss_legendre`` refines nodes to
40 digits on the three-term recurrence.

``substitution_kernel_diag`` is K_N(z, z) by forward substitution against
the Cholesky factor, rebuilt from an estimate's Gram alone, the check on
``KernelEstimate.diag_at_degree`` (one product against the inverse factor).

``extremal_ratio`` is |f(z)|^2 / ||f||^2 for one sample function, the lower
bound that no kernel diagonal K_N(z, z) of degree >= deg f may fall below.
``verify_unitary`` checks that an equivalence map preserves norms, and
``verify_kernel_invariance`` that it leaves the weighted kernel diagonal
alpha(z) K_alpha(z, z) unchanged, both by quadrature on one rule: the checks
on ``equivalence.build_equivalence_map``.  ``validate_laplacian_bounds``
compares the closed-form Laplacian with the finite-difference stencil
(step FD_STEP) and with the weight's declared bounds on a grid.

``csv_by_rows`` is the CLI's CSV writer as it was before it formatted whole
columns: one ``_fmt`` call per cell, row after row.

``numpy_random_disk_points`` is ``quadrature.random_disk_points`` as it was
before it reproduced the PCG64 stream itself: numpy's own
``default_rng(seed)``, the check on the seed mixing, the constants and the
blocked uint64 arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss  # noqa: F401  (the eigensolve oracle)

from holobound.equivalence import EquivalenceMap
from holobound.kernel import build_kernel_estimate, weighted_norm_sq
from holobound.quadrature import QuadratureRule, disk_rule
from holobound.weights import Check, ValidationReport, WeightFunction, fd_laplacian

NEAR_REACH = 5.5      # |z| up to which the near-field rule is used
FAR_RESOLUTION = 64   # radial node count of the far-field rule
_BLOCK_ENTRIES = 1 << 23  # pair entries per block of points x nodes
FD_STEP = 1e-3        # step of the finite-difference check in validate_laplacian_bounds


class PlanarLogPotential:
    """Phi = Gamma * psi for psi supported in D(0, support_radius), by 2-D
    quadrature; ``resolution`` is the radial node count of the near rule,
    whose angular count is twice that."""

    def __init__(self, psi, support_radius: float = 2.0, resolution: int = 256):
        self.psi = psi
        self.support_radius = float(support_radius)
        near = disk_rule(0.0, NEAR_REACH + self.support_radius,
                         resolution, 2 * resolution)
        self._near_nodes = near.nodes
        self._near_gw = near.weights * np.log(np.abs(near.nodes)) / (2.0 * math.pi)
        # radius-major node layout: ascending radii in blocks of n_theta,
        # so a radius prefix is a contiguous slice
        _, self._near_radii, _ = near.rings()
        self._near_n_theta = near.n_theta
        far = disk_rule(0.0, self.support_radius, FAR_RESOLUTION, 2 * FAR_RESOLUTION)
        self._far_nodes = far.nodes
        self._far_pw = far.weights * np.asarray(psi(far.nodes), dtype=float)

    def _near_values(self, zs: np.ndarray) -> np.ndarray:
        # psi(z - zeta) vanishes for |zeta| > |z| + support, so each block
        # only touches the node prefix inside that radius
        out = np.empty(len(zs))
        order = np.argsort(np.abs(zs), kind="stable")
        block = max(1, _BLOCK_ENTRIES // len(self._near_nodes))
        for start in range(0, len(zs), block):
            idx = order[start:start + block]
            zb = zs[idx]
            reach = float(np.max(np.abs(zb))) + self.support_radius
            m = int(np.searchsorted(self._near_radii, reach, side="right"))
            m *= self._near_n_theta
            diff = zb[:, None] - self._near_nodes[None, :m]
            out[idx] = np.asarray(self.psi(diff)) @ self._near_gw[:m]
        return out

    def _far_values(self, zs: np.ndarray) -> np.ndarray:
        out = np.empty(len(zs))
        block = max(1, _BLOCK_ENTRIES // len(self._far_nodes))
        for start in range(0, len(zs), block):
            zb = zs[start:start + block]
            diff = np.abs(zb[:, None] - self._far_nodes[None, :])
            out[start:start + block] = np.log(diff) @ self._far_pw / (2.0 * math.pi)
        return out

    def __call__(self, zs) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        out = np.empty(len(zs))
        near = np.abs(zs) <= NEAR_REACH
        if near.any():
            out[near] = self._near_values(zs[near])
        if (~near).any():
            out[~near] = self._far_values(zs[~near])
        return out


def barycentric_rows(x: np.ndarray, n: int) -> np.ndarray:
    """Rows mapping values at the n Chebyshev-Lobatto points -cos(pi j / (n - 1))
    to the values of their interpolant at x in [-1, 1]."""
    nodes = -np.cos(np.pi * np.arange(n) / (n - 1))
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0.0
    c = w / np.where(exact, 1.0, diff)
    hit = exact.any(axis=1)
    c[hit] = exact[hit]
    return c / c.sum(axis=1, keepdims=True)


def dense_modes_at(potential, r: np.ndarray) -> np.ndarray:
    """Phi_k of ``potential`` at the radii r, shape (len(r), modes): the
    multipole form at r >= R, and inside each piece one dense barycentric
    matrix times the piece's complex table."""
    k, R = potential._k, potential.support_radius
    out = np.empty((len(r), len(k)), dtype=complex)
    far = r >= R
    rf = r[far]
    out[far, 0] = np.log(rf) * potential._moments[0]
    out[far, 1:] = (-(R / rf)[:, None] ** k[1:]
                    * potential._moments[1:] / (2.0 * k[1:]))
    knots = potential._knots
    piece = np.searchsorted(knots, r, side="right") - 1
    for p, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
        idx = np.flatnonzero((piece == p) & ~far)
        x = (2.0 * r[idx] - a - b) / (b - a)
        out[idx] = barycentric_rows(x, potential.resolution) @ potential._table[p]
    return out


def ifft_at_gaps(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The real columns ``values`` at the n rings of a piece interpolated to
    its gap nodes, in the layout of ``greens._at_gaps``: (offsets, columns,
    n - 1), for the phases ``shift`` of shape (offsets, n)."""
    N = len(values) - 1
    coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / N
    coef[[0, -1]] *= 0.5
    out = np.empty((N, len(shift), values.shape[1]))
    for l, phase in enumerate(shift):
        out[:, l] = np.fft.ifft(coef * phase[:, None], n=2 * N, axis=0)[:N].real * (2 * N)
    return out.transpose(1, 2, 0)


def sequential_ring_sums(r: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """``greens._ring_sums`` ring by ring: below[j + 1] = decay_j below[j] +
    inner[j] upwards and above[j] = decay_j above[j + 1] + outer[j]
    downwards, with decay_j = (r_j / r_{j+1})^k (mode 0: plain sums)."""
    G, K = inner.shape
    below = np.zeros((G + 1, K), dtype=complex)
    above = np.zeros((G + 1, K), dtype=complex)
    below[1:, 0] = np.cumsum(inner[:, 0])
    above[:-1, 0] = np.cumsum(outer[::-1, 0])[::-1]
    if K > 1:
        decay = (r[:-1] / r[1:])[:, None] ** np.arange(1, K)
        for j in range(G):
            below[j + 1, 1:] = decay[j] * below[j, 1:] + inner[j, 1:]
        for j in range(G - 1, -1, -1):
            above[j, 1:] = decay[j] * above[j + 1, 1:] + outer[j, 1:]
    return below, above


def mp_gauss_legendre(n: int, guesses, dps: int = 40):
    """Gauss-Legendre nodes and weights to ``dps`` digits, as mpmath numbers,
    by Newton's method on the three-term recurrence from ``guesses`` (nodes
    correct to double precision, so three steps reach 40 digits)."""
    import mpmath

    def legendre(x):
        p_prev, p = mpmath.mpf(1), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, n * (p_prev - x * p) / (1 - x * x)

    nodes, weights = [], []
    with mpmath.workdps(dps):
        for guess in guesses:
            x = mpmath.mpf(float(guess))
            for _ in range(3):
                p, dp = legendre(x)
                x -= p / dp
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp ** 2))
    return nodes, weights


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def csv_by_rows(experiment: str, columns: dict) -> str:
    """CSV text of an experiment's columns, transposed to rows (a scalar
    column repeated on each) and written cell by cell."""
    n_rows = next((len(c) for c in columns.values() if isinstance(c, (list, np.ndarray))), 0)
    rows = zip(*(c if isinstance(c, (list, np.ndarray)) else [c] * n_rows
                 for c in columns.values()))
    lines = [f"# schema holobound.{experiment}.v1", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def numpy_random_disk_points(count: int, radius: float, seed: int) -> np.ndarray:
    """Uniform random points in D(0, radius) from numpy's ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return r * np.exp(1j * theta)


def radial_kernel_diag(w, N: int, z, radius: float, panels: int = 64, nodes: int = 48):
    """K_N(z, z) for a radial weight by a separate 1-D route: its Gram is
    diagonal, G_nn = 2 pi int_0^radius r^(2n+1) e^{-phi(r)} dr, so
    K_N(z, z) = sum_n |z|^(2n) / G_nn.  The integrals take ``nodes``-point
    Gauss-Legendre (numpy's eigensolve rule) on each of ``panels`` equal
    panels, with knots added at the radii 1 and 2, where the potential-defined
    weight's potential joins its pieces."""
    x, gw = leggauss(nodes)
    knots = np.union1d(np.linspace(0.0, radius, panels + 1), [1.0, 2.0])
    knots = knots[knots <= radius]
    a, h = knots[:-1, None], np.diff(knots)[:, None]
    r = (a + 0.5 * h * (x + 1.0)).ravel()
    dr = (0.5 * h * gw).ravel()
    density = np.exp(-np.asarray(w.weight(r + 0j), dtype=float))
    n = np.arange(N + 1)
    G = 2.0 * math.pi * (r[:, None] ** (2 * n + 1) * (dr * density)[:, None]).sum(axis=0)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return (np.abs(z)[:, None] ** (2 * n) / G).sum(axis=1)


def substitution_kernel_diag(est, z, degree: int):
    """K(z, z) of the leading block of the given degree from ``est.gram``
    alone: equilibrate, factor the leading block with ``np.linalg.cholesky``,
    and solve L y = D^-1 v(z - c) row by row for every point at once."""
    n = degree + 1
    G = est.gram
    d = np.sqrt(np.real(np.diag(G)))[:n]
    L = np.linalg.cholesky(G[:n, :n] / np.outer(d, d))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    V = (z - est.center)[:, None] ** np.arange(n) / d
    Y = np.empty((n, len(z)), dtype=complex)
    for i in range(n):
        Y[i] = (V[:, i] - L[i, :i] @ Y[:i]) / L[i, i]
    return np.sum(np.abs(Y) ** 2, axis=0)


def extremal_ratio(w: WeightFunction, f, z, rule: QuadratureRule):
    """|f(z)|^2 / ||f||^2 under the weight; never exceeds the kernel diagonal
    when f is a polynomial of degree at most the kernel's."""
    norm_sq = weighted_norm_sq(w, f, rule)
    if norm_sq <= 0.0:
        raise ValueError("sample function has zero norm under the weight")
    z = np.asarray(z, dtype=complex)
    out = np.abs(np.asarray(f(z))) ** 2 / norm_sq
    return float(out) if out.ndim == 0 else out


def verify_unitary(m: EquivalenceMap, samples, rule: QuadratureRule,
                   tol: float) -> ValidationReport:
    """Check ||phi_eq * f||^2 under beta equals ||f||^2 under alpha.

    Both norms are computed by quadrature on the same rule; the relative
    deviation must stay within tol for every sample.
    """
    checks = []
    for k, f in enumerate(samples):
        lhs = weighted_norm_sq(m.target, lambda z: np.asarray(m(z)) * np.asarray(f(z)), rule)
        rhs = weighted_norm_sq(m.source, f, rule)
        if rhs <= 0.0:
            raise ValueError(f"sample #{k} has zero norm under the source density")
        dev = abs(lhs / rhs - 1.0)
        checks.append(Check(f"norm_ratio_{k}", dev, tol, dev <= tol))
    return ValidationReport(tuple(checks))


def verify_kernel_invariance(a: WeightFunction, b: WeightFunction, z_list,
                             N: int, rule: QuadratureRule,
                             tol: float) -> ValidationReport:
    """Check alpha(z) K_alpha(z, z) = beta(z) K_beta(z, z) at the given points.

    Both diagonals are computed at convergence in the truncation degree N
    (the multiplier shuffles polynomial degrees, so finite-N truncations
    only agree once both sides have converged); the report notes the
    effective degrees actually used.
    """
    z = np.asarray(z_list, dtype=complex)
    est_a = build_kernel_estimate(a, N, rule)
    est_b = build_kernel_estimate(b, N, rule)
    lhs = np.atleast_1d(est_a.diag(z)) * np.atleast_1d(a.density(z))
    rhs = np.atleast_1d(est_b.diag(z)) * np.atleast_1d(b.density(z))
    rel = np.abs(lhs - rhs) / np.abs(lhs)
    gap = max(float(np.max(est_a.convergence_gap(z))),
              float(np.max(est_b.convergence_gap(z))))
    note = (f"effective degrees {est_a.effective_degree} / "
            f"{est_b.effective_degree}, worst convergence gap {gap:.2e}")
    checks = tuple(
        Check(f"weighted_diag_{i}", float(rel[i]), tol, float(rel[i]) <= tol,
              note=note)
        for i in range(len(z))
    )
    return ValidationReport(checks)


def validate_laplacian_bounds(w: WeightFunction, grid, tol: float) -> ValidationReport:
    """Check lap(phi) stays within the declared bounds on a grid.

    Reports the grid min/max of the closed-form Laplacian, the worst
    disagreement against the finite-difference stencil, and passes iff all
    grid values lie in [m - tol, M + tol].  Failures are reported, never
    raised.
    """
    grid = np.asarray(grid, dtype=complex)
    if grid.size == 0:
        raise ValueError("validation grid must be nonempty")
    lap = np.atleast_1d(np.asarray(w.laplacian(grid)))
    fd = np.atleast_1d(np.asarray(fd_laplacian(w.weight, grid, FD_STEP)))
    m, M = w.laplacian_bounds
    lap_min, lap_max = float(lap.min()), float(lap.max())
    fd_dev = float(np.max(np.abs(lap - fd) / (1.0 + np.abs(lap))))
    checks = (
        Check("laplacian_min", lap_min, m - tol, lap_min >= m - tol,
              note=f"worst point {grid[np.argmin(lap)]!r}"),
        Check("laplacian_max", lap_max, M + tol, lap_max <= M + tol,
              note=f"worst point {grid[np.argmax(lap)]!r}"),
        Check("fd_agreement", fd_dev, tol, fd_dev <= tol),
    )
    return ValidationReport(checks)
