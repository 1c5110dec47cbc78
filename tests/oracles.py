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
the coordinate x in [-1, 1] of each piece) times the mode table, the check
on ``LogPotential._modes_at``.

``AllModesLogPotential`` is ``greens.LogPotential`` as it was before it
carried only the live real columns: every mode 0..K the tail rule keeps,
real and imaginary parts, through the gap integrals (weights u rho^k as
powers), the ring sums (``sequential_ring_sums``), the complex mode table
(``dense_modes_at``) and the resummation (one exponential per point and
mode), the check on the live-column set-up and evaluation.

``ifft_at_gaps`` and ``sequential_ring_sums`` are the set-up of a
``greens.LogPotential`` as it was before the inverse real FFTs and the
blocked scan: the gap values as the real part of one complex inverse FFT
per gap offset, along the strided ring axis, of the halved and
scaled cosine coefficients, and the ring sums as two Python loops over the
rings with the decay factors as powers of the mode numbers.  They are the
checks on ``greens._at_gaps`` and ``greens._ring_sums``.

``fixed_rings`` builds every ``greens.LogPotential`` inside it on
``resolution`` rings per piece, one level with no ladder: the fixed-ring
core that the set-up oracles compare against, ring count for ring count.

``gauss_legendre`` is a 1-D rule independent of the package's one rule,
``quadrature.clenshaw_curtis``: the reference rule of ``gl_kernel_diag``,
of ``gl_piece_rule`` and of the check on ``potential.phi_at_origin``.
``gl_piece_rule`` is ``greens._piece_rule`` with GAP_NODES Gauss-Legendre
offsets in every gap in place of the squared Clenshaw-Curtis nodes, the
check on the log-potential's gap rule.

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

``leggauss`` is numpy's Gauss-Legendre rule from the eigenvalues of the n x n
companion matrix, the check on ``gauss_legendre`` (Newton's method in the
angle, on P_n's cosine series); ``mp_gauss_legendre`` refines nodes to 40
digits on the three-term recurrence.

``substitution_kernel_diag`` is K_N(z, z) by forward substitution against
the Cholesky factor, rebuilt from an estimate's Gram alone, the check on
``KernelEstimate.diag_at_degree`` (one product against the inverse factor).
``gl_kernel_diag`` solves the same way on the Gram of n_r Gauss-Legendre
rings on a rule's disk, every ring at every angle: the check on the nested
Clenshaw-Curtis levels of ``kernel.build_kernel_estimate``.

``weighted_norm_sq`` is ||f||^2 under a weight for one function f, by the
rule's integral of |f|^2 e^{-phi} on its nodes.  ``extremal_ratio`` is
|f(z)|^2 / ||f||^2 for one sample function, the lower bound that no kernel
diagonal K_N(z, z) of degree >= deg f may fall below.
``verify_unitary`` checks that an equivalence map preserves norms, and
``verify_kernel_invariance`` that it leaves the weighted kernel diagonal
alpha(z) K_alpha(z, z) unchanged, both by quadrature on one rule: the checks
on ``equivalence.build_equivalence_map``.  ``validate_laplacian_bounds``
compares the closed-form Laplacian with the finite-difference stencil
(step FD_STEP) and with the weight's declared bounds on a grid.

``translated_pointwise_check`` replays the translation proof of the
global bound for one sample polynomial at one point: |f(z)|^2 against
C e^{phi(z)} times the integral of |f|^2 e^{-phi} over D(z, 1), and that
disk integral against the whole-plane norm ||f||^2 on a truncated plane
rule wide enough for f's degree.  The package certifies the bound through
the kernel diagonal K_N(z, z) e^{-phi(z)}, the smallest constant for every
f at once; the replay checks the proof's chain one sample at a time.

``csv_by_rows`` is the CLI's CSV writer as it was before it formatted whole
columns: one ``_fmt`` call per cell, row after row.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss  # noqa: F401  (the eigensolve oracle)

from holobound import greens
from holobound.bounds import certificate_constant
from holobound.equivalence import EquivalenceMap
from holobound.kernel import build_kernel_estimate
from holobound.quadrature import QuadratureRule, disk_rule, integrate, truncated_plane_rule
from holobound.weights import (
    Check,
    ValidationReport,
    WeightFunction,
    fd_laplacian,
    truncation_radius,
)

NEAR_REACH = 5.5      # |z| up to which the near-field rule is used
FAR_RESOLUTION = 64   # radial node count of the far-field rule
_BLOCK_ENTRIES = 1 << 23  # pair entries per block of points x nodes
FD_STEP = 1e-3        # step of the finite-difference check in validate_laplacian_bounds
POINTWISE_REL_TOL = 1e-9  # relative slack of each step in translated_pointwise_check
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
        self._near_radii = near._radial()[0]
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
    """Phi_k of ``potential`` at the radii r, one column per column of its
    table (of the modes ``potential._k``): the multipole form at r >= R,
    and inside each piece one dense barycentric matrix times the piece's
    table."""
    k, R = potential._k, potential.support_radius
    out = np.empty((len(r), len(k)), dtype=potential._table.dtype)
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
        out[idx] = barycentric_rows(x, potential._table.shape[1]) @ potential._table[p]
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


def sequential_ring_sums(r: np.ndarray, k: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """``greens._ring_sums`` ring by ring: below[j + 1] = decay_j below[j] +
    inner[j] upwards and above[j] = decay_j above[j + 1] + outer[j]
    downwards, with decay_j = (r_j / r_{j+1})^k per column of the modes k
    (column 0, mode 0: plain sums)."""
    G, C = inner.shape
    below = np.zeros((G + 1, C), dtype=inner.dtype)
    above = np.zeros((G + 1, C), dtype=inner.dtype)
    below[1:, 0] = np.cumsum(inner[:, 0])
    above[:-1, 0] = np.cumsum(outer[::-1, 0])[::-1]
    if C > 1:
        decay = (r[:-1] / r[1:])[:, None] ** k[1:]
        for j in range(G):
            below[j + 1, 1:] = decay[j] * below[j, 1:] + inner[j, 1:]
        for j in range(G - 1, -1, -1):
            above[j, 1:] = decay[j] * above[j + 1, 1:] + outer[j, 1:]
    return below, above


class AllModesLogPotential:
    """``greens.LogPotential`` on every mode 0..K of the tail rule, real and
    imaginary parts alike: the same rings, gap rule and tail rule, with the
    weights u rho^k as powers, the ring sums ring by ring, a complex mode
    table and one exponential per (point, mode) in the resummation."""

    def __init__(self, psi, support_radius: float = 2.0, resolution: int = 256):
        self.support_radius = R = float(support_radius)
        self.resolution = n = int(resolution)
        self._knots = np.array(sorted({0.0, min(1.0, R), min(2.0, R), R}))
        rings, nodes, weights, shift = greens._piece_rule(self._knots, n)
        self.n_theta, modes = greens.angular_modes(psi, rings)
        self._k = k = np.arange(modes.shape[-1])
        inner, outer = [], []
        for rg, s, u, m in zip(rings, nodes, weights, modes):
            f = ifft_at_gaps(m.view(float), shift)
            f = f[:, 0::2] + 1j * f[:, 1::2]  # (offset, mode, gap)
            w_in = u * (s / rg[1:]) ** k[:, None, None]
            w_out = u * (rg[:-1] / s) ** k[:, None, None]
            w_out[0] *= np.log(s)
            inner.append(np.einsum("lkj,klj->jk", f, w_in))
            outer.append(np.einsum("lkj,klj->jk", f, w_out))
        r = np.concatenate([rg[:-1] for rg in rings] + [rings[-1, -1:]])
        below, above = sequential_ring_sums(r, k, np.concatenate(inner), np.concatenate(outer))
        table = np.empty_like(below)
        table[:, 0] = np.log(np.where(r > 0.0, r, 1.0)) * below[:, 0] + above[:, 0]
        table[:, 1:] = -(below[:, 1:] + above[:, 1:]) / (2.0 * k[1:])
        self._table = np.stack([table[i * (n - 1):i * (n - 1) + n] for i in range(len(rings))])
        self._moments = below[-1]

    def __call__(self, z) -> np.ndarray:
        zs = np.asarray(z, dtype=complex).ravel()
        m = dense_modes_at(self, np.abs(zs))
        turn = np.exp(1j * np.angle(zs)[:, None] * self._k[1:])
        return m[:, 0].real + 2.0 * np.sum(m[:, 1:] * turn, axis=1).real


@contextlib.contextmanager
def fixed_rings():
    """Within the block, ``greens.LogPotential(psi, R, n)`` tabulates one
    level of n rings per piece (any n >= 8) and stops there."""
    levels = greens._ring_levels
    greens._ring_levels = lambda resolution: [resolution]
    try:
        yield
    finally:
        greens._ring_levels = levels


def gl_piece_rule(knots: np.ndarray, n: int):
    """``greens._piece_rule`` on ``gauss_legendre(GAP_NODES)``: the rings of
    every piece between consecutive knots, and in every gap GAP_NODES
    Gauss-Legendre nodes at phi = pi (j + tau) / N, tau = (g + 1) / 2, with
    weights gw / 2."""
    N = n - 1
    a, b = knots[:-1, None], knots[1:, None]
    rings = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * np.arange(n) / N))
    rings[:, 0], rings[:, -1] = knots[:-1], knots[1:]
    g, gw = gauss_legendre(greens.GAP_NODES)
    tau = 0.5 * (g + 1.0)[:, None]
    phi = np.pi * (np.arange(N) + tau) / N
    a, b = a[:, None], b[:, None]
    s = a + 0.5 * (b - a) * (1.0 - np.cos(phi))
    u = (np.pi / N) * 0.5 * gw[:, None] * s * 0.5 * (b - a) * np.sin(phi)
    shift = np.exp(1j * np.pi * tau * np.arange(n) / N)
    return rings, s, u, shift


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
    return _gram_kernel_diag(est.gram, est.center, z, degree)


def gl_kernel_diag(w: WeightFunction, N: int, rule: QuadratureRule, z):
    """K_N(z, z) from the Gram on n_r Gauss-Legendre rings on the rule's disk
    (``gauss_legendre``, not the rule's own radii), each sampled at all
    n_theta angles, solved as in ``substitution_kernel_diag``: the kernel's
    ring assembly as it was before the nested Clenshaw-Curtis levels, the
    check on ``build_kernel_estimate``.  n_theta must exceed 2N, so that no
    mode |k| <= N is aliased."""
    x, gw = gauss_legendre(rule.n_r)
    r = 0.5 * rule.radius * (x + 1.0)
    w_r = 0.5 * rule.radius * gw * r
    m = rule.n_theta
    ring = rule.center + np.outer(r, np.exp(2j * math.pi * np.arange(m) / m))
    # U_i(k), the angular sum of exp(-phi) e^{i k theta} 2 pi / m on ring i
    U = np.fft.fft(w.density(ring), axis=1).conj() * (2.0 * math.pi / m)
    j = np.arange(N + 1)
    powers = (r / rule.radius)[:, None, None] ** (j[:, None] + j)
    G = np.einsum("i,imn,imn->mn", w_r, powers, U[:, (j[:, None] - j) % m])
    G *= np.outer(rule.radius ** j, rule.radius ** j)
    return _gram_kernel_diag(0.5 * (G + G.conj().T), rule.center, z, N)


def _gram_kernel_diag(G, center: complex, z, degree: int):
    n = degree + 1
    d = np.sqrt(np.real(np.diag(G)))[:n]
    L = np.linalg.cholesky(G[:n, :n] / np.outer(d, d))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    V = (z - center)[:, None] ** np.arange(n) / d
    Y = np.empty((n, len(z)), dtype=complex)
    for i in range(n):
        Y[i] = (V[:, i] - L[i, :i] @ Y[:i]) / L[i, i]
    return np.sum(np.abs(Y) ** 2, axis=0)


def weighted_norm_sq(w: WeightFunction, f, rule: QuadratureRule) -> float:
    """||f||^2 under the weight: the rule's integral of |f|^2 e^{-phi}."""
    return integrate(rule, lambda p: np.abs(np.asarray(f(p))) ** 2 * w.density(p))


def extremal_ratio(w: WeightFunction, f, z, rule: QuadratureRule):
    """|f(z)|^2 / ||f||^2 under the weight; never exceeds the kernel diagonal
    when f is a polynomial of degree at most the kernel's."""
    norm_sq = weighted_norm_sq(w, f, rule)
    if norm_sq <= 0.0:
        raise ValueError("sample function has zero norm under the weight")
    z = np.asarray(z, dtype=complex)
    out = np.abs(np.asarray(f(z))) ** 2 / norm_sq
    return float(out) if out.ndim == 0 else out


def translated_pointwise_check(w: WeightFunction, f: Polynomial, z,
                               resolution: int) -> ValidationReport:
    """Replay the translation proof of the global bound at one point.

    Verifies the chain
        |f(z)|^2 <= C e^{phi(z)} * integral over D(z,1) of |f|^2 e^{-phi}
                 <= C e^{phi(z)} * ||f||^2
    with both integrals by quadrature and relative tolerance 1e-9.
    """
    z = complex(z)
    C = certificate_constant(w.laplacian_bounds[1])
    local_int = weighted_norm_sq(w, f, disk_rule(z, 1.0, resolution, 2 * resolution))
    radius = truncation_radius(w, max(f.degree(), 1)) + abs(z)
    whole_int = weighted_norm_sq(w, f, truncated_plane_rule(radius, resolution,
                                                            2 * resolution))
    phi_z = w.weight(z)
    lhs = abs(complex(f(z))) ** 2
    local_side = C * math.exp(phi_z) * local_int
    global_side = C * math.exp(phi_z) * whole_int
    slack = 1.0 + POINTWISE_REL_TOL
    checks = (
        Check("local_step", lhs, local_side * slack,
              lhs <= local_side * slack,
              note=f"|f(z)|^2 = {lhs:.6e}, bound = {local_side:.6e}"),
        Check("monotone_step", local_int, whole_int * slack,
              local_int <= whole_int * slack,
              note=f"disk integral {local_int:.6e}, plane integral {whole_int:.6e}"),
        Check("global_step", lhs, global_side * slack,
              lhs <= global_side * slack),
    )
    return ValidationReport(checks)


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
    gap = max(float(np.max(est_a.diag_and_gap(z)[1])),
              float(np.max(est_b.diag_and_gap(z)[1])))
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
