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

``leggauss`` is numpy's Gauss-Legendre rule from the eigenvalues of the n x n
companion matrix, the check on ``quadrature.gauss_legendre`` (Newton's method
per node); ``mp_gauss_legendre`` refines nodes to 40 digits.

``substitution_kernel_diag`` is K_N(z, z) by forward substitution against
the Cholesky factor, rebuilt from an estimate's Gram alone, the check on
``KernelEstimate.diag_at_degree`` (one product against the inverse factor).

``csv_by_rows`` is the CLI's CSV writer as it was before it formatted whole
columns: one ``_fmt`` call per cell, row after row.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss  # noqa: F401  (the eigensolve oracle)

from holobound.quadrature import disk_rule

NEAR_REACH = 5.5      # |z| up to which the near-field rule is used
FAR_RESOLUTION = 64   # radial node count of the far-field rule
_BLOCK_ENTRIES = 1 << 23  # pair entries per block of points x nodes


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
