"""Monomial Gram matrices and truncated reproducing-kernel diagonals.

The degree-N kernel diagonal is the quadratic form

    K_N(z, z) = v(z)^H G^{-1} v(z),   v(z) = (1, z, ..., z^N),

where G is the Gram matrix of the monomials under the weighted inner
product.  K_N(z, z) equals the supremum of |f(z)|^2 / ||f||^2 over
polynomials f of degree at most N, increases monotonically with N, and
converges to the kernel diagonal of the full space.

G is assembled from the polar tensor structure of the quadrature rule: its
rings c + r_i e^{i theta} carry radial weights w_i (``QuadratureRule.rings``).
In the basis (z - c)^j the integral of exp(-phi) (z - c)^m conj(z - c)^n is
the ring sum of r_i^(m+n) U_i(m - n), where U_i(k) is the angular sum of
u e^{i k theta} on ring i, u = w_i exp(-phi) 2 pi / m_i at m_i equispaced
angles: one real-input FFT per ring instead of a (nodes x (N+1)) Vandermonde
product.  u is real, so U_i(-k) = conj(U_i(k)) and the FFT's nonnegative
half holds every frequency.  The radii enter as (r_i / rho)^p and
rho^m rho^n, rho the outer radius, so no power overflows before the weight
damps it.

The Gram reads U_i(k) for |k| <= N only, so each ring takes the angle count
its density needs, not the rule's n_theta, and no node array is built.  The
count starts at the smallest n_theta / 2^j above 2N (and at least
START_N_THETA, where the tail rules of the greens module start), or at
n_theta when there is none, and doubles, sampling only the new angles
(:func:`holobound.quadrature.angle_levels`), until two things hold:

* the ring's top half of modes lies below MODE_TAIL times its mode 0, over
  its equilibrated share s_i = min(1, n_r max_{m<=N} r_i^2m W_i / G_mm), W_i
  = U_i(0).  By Cauchy-Schwarz, r_i^(m+n) <= (r_i^2m r_i^2n)^(1/2), so a
  change of U_i(k) by MODE_TAIL W_i / s_i moves an entry of the equilibrated
  Gram by at most MODE_TAIL / n_r when s_i < 1 (MODE_TAIL when s_i = 1), and
  all the rings together move it by about MODE_TAIL;
* the count exceeds N plus the ring's last mode above that limit, so no
  |k| <= N is aliased.

The count never passes n_theta, and a ring whose values or share are not
finite goes there.  At n_theta the ring sum is the rule's own node sum,
exact for every n_theta, odd or even, because U_i is n_theta-periodic: a
frequency past n_theta / 2 is read at its alias.  A density with no angular
structure stops at the first count, so radiality is measured here too, with
no flag: the Gaussian at N = 40 and resolution 512 is sampled at 1/8 of the
rule's nodes.

K_N(z, z) does not depend on the basis of the polynomials of degree <= N, so
a kernel estimate factors the Gram in the basis (z - c)^j and evaluates
(z - c)^j; for the usual origin-centred rules that basis is the monomials.
:func:`gram_matrix` returns the monomial Gram and so takes origin-centred
rules only.

The solve goes through a symmetric diagonal equilibration of G: the raw
monomial Gram has factorially growing diagonal (already ~n! for Gaussian
weights), so its unscaled condition number is astronomically large even when
the solve is numerically exact.  The reported ``condition_estimate`` is that
of the equilibrated matrix, which is what actually controls solve accuracy;
degradation kicks in when it passes 1e12.

Each estimate forms the inverse factor C = L^-1 D^-1 once, L the Cholesky
factor of the equilibrated Gram and D its scales, by forward substitution on
the identity, so C is exactly lower triangular (np.linalg.inv would pivot
and leave rounding above the diagonal).  The rows of C are the
coefficients of the orthonormal polynomials p_k in the basis (z - c)^j, so
K_N(z, z) = sum_k |p_k(z)|^2 = |C v(z - c)|^2: one matrix product per block
of points.  C is lower triangular, and the leading block of a triangular
inverse is the inverse of the leading block, just as the Cholesky factor of
a leading block of G is the leading block of its factor.  Every lower degree
therefore reads the leading block of the same C, and the diagonals of
nested degrees are monotone by construction.  A block holds at most
_BLOCK_ENTRIES = 2^15 Vandermonde entries: the Vandermonde block and its
product take 512 KB each at N = 40, inside the 2 MB per-core L2 cache of
the Xeon they were measured on, and memory does not grow with the grid.  On
the 5025-point benchmark grid at N = 40 larger blocks were no faster and
doubled the temporaries or more, and smaller ones were slower; larger blocks
gain 12-22% only on a 200000-point grid at N = 64 (BENCH_gemm_diag.json).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import rfft

from .greens import MODE_TAIL, START_N_THETA
from .quadrature import QuadratureRule, angle_levels
from .weights import WeightFunction

__all__ = [
    "KernelEstimate",
    "PositiveDefinitenessError",
    "gram_matrix",
    "build_kernel_estimate",
]

MAX_DEGREE = 64
CONDITION_LIMIT = 1e12
GAP_STEP = 5  # degree step of the convergence gap of KernelEstimate.diag_and_gap

# entry budget per block of (points x (degree + 1)) in KernelEstimate.diag_at_degree
_BLOCK_ENTRIES = 1 << 15


class PositiveDefinitenessError(ArithmeticError):
    """Gram matrix failed to factor; carries a smallest-eigenvalue estimate.

    Usually means the truncation radius is too small or the degree too large
    for the quadrature resolution.
    """

    def __init__(self, smallest_eigenvalue: float, degree: int):
        self.smallest_eigenvalue = float(smallest_eigenvalue)
        self.degree = int(degree)
        super().__init__(
            f"Gram matrix at degree {degree} is not positive definite "
            f"(smallest eigenvalue estimate {smallest_eigenvalue:.3e}); "
            f"increase the truncation radius or quadrature resolution, or "
            f"lower the degree")


def _vandermonde(z: np.ndarray, degree: int) -> np.ndarray:
    """The (points x (degree + 1)) matrix of powers z^j by a running product,
    column-contiguous so each power is read in one stride."""
    z = np.asarray(z, dtype=complex)
    V = np.empty((degree + 1, len(z)), dtype=complex)
    V[0] = 1.0
    for j in range(1, degree + 1):
        np.multiply(V[j - 1], z, out=V[j])
    return V.T


def _start_count(n_theta: int, degree: int) -> int:
    """The smallest n_theta / 2^j above 2 degree and at least START_N_THETA,
    or n_theta itself when there is none."""
    m = n_theta
    while m % 2 == 0 and m // 2 > 2 * degree and m // 2 >= START_N_THETA:
        m //= 2
    return m


def _ring_modes(w: WeightFunction, degree: int, rule: QuadratureRule):
    """(c, r, U, counts): the rule's centre and radii, U[i, k] = U_i(k) for
    k = 0..degree, and the angle count each ring was sampled at.

    Every ring starts at ``_start_count`` angles and doubles, sampling only
    the new angles, until its top half of modes lies below MODE_TAIL times
    its mode 0 over its equilibrated share s_i, and the count exceeds degree
    plus its last kept mode (module docstring).  A ring stops at the rule's
    n_theta in any case, and goes there when its values or its share are
    not finite.
    """
    center, r, w_r = rule.rings()
    n_theta = rule.n_theta
    U = np.empty((len(r), degree + 1), dtype=complex)
    counts = np.empty(len(r), dtype=int)
    rows = np.arange(len(r))
    levels = angle_levels(lambda z: w.density(center + z), r, _start_count(n_theta, degree),
                          n_theta)
    m, values = next(levels)
    share = None
    while True:
        # u = weight * exp(-phi) on the ring is real, so U_i(k) = conj(F_i(k))
        # with F_i its real-input FFT, which holds the frequencies 0..m // 2
        F = rfft(values * (w_r[rows] * (2.0 * np.pi / m))[:, None], axis=1)
        mag = np.abs(F)
        if share is None:
            share = _equilibrated_share(r, F[:, 0].real, degree)
        with np.errstate(invalid="ignore"):
            above = mag * share[rows, None] > MODE_TAIL * mag[:, :1]
        kept = np.where(above.any(axis=1), m // 2 - np.argmax(above[:, ::-1], axis=1), 0)
        done = (~above[:, m // 4 + 1:].any(axis=1) & (m > degree + kept)
                & np.isfinite(values).all(axis=1) & np.isfinite(share[rows]))
        if m == n_theta:
            done[:] = True
        # k wraps to its alias in (-m / 2, m / 2]
        half = (m - 1) // 2
        ks = (np.arange(degree + 1) + half) % m - half
        Fk = F[done][:, np.abs(ks)]
        U[rows[done]] = np.where(ks >= 0, Fk.conj(), Fk)
        counts[rows[done]] = m
        if done.all():
            return center, r, U, counts
        rows = rows[~done]
        m, values = levels.send(~done)


def _equilibrated_share(r: np.ndarray, W: np.ndarray, degree: int) -> np.ndarray:
    """s_i = min(1, n_r max_m r_i^2m W_i / G_mm), G_mm = sum_i r_i^2m W_i, with
    W_i the ring's mode 0 weighted; nan where G_mm does not give one."""
    A = (r / r.max())[:, None] ** (2 * np.arange(degree + 1)) * W[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.minimum(1.0, len(r) * np.max(A / A.sum(axis=0), axis=1))


def _assemble_gram(w: WeightFunction, degree: int, rule: QuadratureRule):
    """(c, G, counts) with G_mn the integral of exp(-phi) (z - c)^m conj(z - c)^n
    by the ring sums of the module docstring, c the rule's centre and counts
    the angle count of each ring."""
    center, r, U, counts = _ring_modes(w, degree, rule)
    # Q[p, k] = sum_i (r_i / rho)^p U_i(k) for p = 0..2 degree, k = 0..degree;
    # the columns -k are the conjugates, since the powers are real
    rho = r.max()
    Q = ((r / rho)[:, None] ** np.arange(2 * degree + 1)).T @ U
    m = np.arange(degree + 1)
    diff = m[:, None] - m
    Qmn = Q[m[:, None] + m, np.abs(diff)]
    Qmn = np.where(diff >= 0, Qmn, Qmn.conj())
    s = rho ** m
    G = s[:, None] * Qmn * s
    return center, 0.5 * (G + G.conj().T), counts  # exactly Hermitian despite FFT rounding


def _equilibrated_gram(w: WeightFunction, N: int, rule: QuadratureRule):
    """Validate N, assemble the centred Gram G and equilibrate it: returns
    (c, G, d, G / d d^T, counts) with d the square root of G's diagonal, which
    must be positive, and counts the angle count of each ring."""
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    if N > MAX_DEGREE:
        raise ValueError(f"degree {N} exceeds the supported cap {MAX_DEGREE}")
    center, G, counts = _assemble_gram(w, N, rule)
    diag = np.real(np.diag(G))
    if not np.all(diag > 0.0):
        raise PositiveDefinitenessError(float(diag.min()), N)
    d = np.sqrt(diag)
    return center, G, d, G / np.outer(d, d), counts


def _not_positive_definite(scaled: np.ndarray, d: np.ndarray, N: int) -> PositiveDefinitenessError:
    eigs = np.linalg.eigvalsh(scaled)
    return PositiveDefinitenessError(float(eigs.min() * np.min(d) ** 2), N)


def gram_matrix(w: WeightFunction, N: int, rule: QuadratureRule) -> np.ndarray:
    """Gram matrix G_mn = integral of z^m conj(z)^n exp(-phi) over the rule.

    Hermitian by construction (symmetrized after assembly).  The rule must
    be centred at 0, where the FFT assembly's basis (z - c)^j is the
    monomials.  Raises :class:`PositiveDefinitenessError` if the matrix does
    not factor.
    """
    center = rule.rings()[0]
    if center != 0:
        raise ValueError(f"gram_matrix needs a rule centred at 0, got centre {center!r}")
    _, G, d, scaled, _ = _equilibrated_gram(w, N, rule)
    try:
        np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(scaled, d, N) from None
    return G


@dataclass(frozen=True, eq=False)
class KernelEstimate:
    """Factorized truncated-kernel evaluator for one (weight, degree, rule).

    ``effective_degree`` may be smaller than the requested degree: when the
    equilibrated Gram condition estimate exceeds 1e12 the estimate degrades
    to the largest well-conditioned leading block and records it.  ``gram``
    is the Gram in the basis (z - center)^j, ``center`` the rule's centre: the
    monomial Gram for an origin-centred rule.  ``angle_counts`` holds the
    number of angles at which each ring of the rule was sampled.

    :func:`build_kernel_estimate` caches its estimates, so one estimate may
    sit in several certificates: it is frozen and its arrays are read-only.
    """

    degree: int
    center: complex
    gram: np.ndarray
    condition_estimate: float
    effective_degree: int
    angle_counts: np.ndarray
    _inverse_factor: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for array in (self.gram, self.angle_counts, self._inverse_factor):
            array.flags.writeable = False

    @property
    def degraded(self) -> bool:
        """Whether the degree was reduced below the requested one."""
        return self.effective_degree < self.degree

    def angle_bands(self) -> list:
        """[angles, rings] for each run of consecutive rings, innermost
        first, that the Gram sampled at one angle count."""
        edges = np.flatnonzero(np.diff(self.angle_counts)) + 1
        return [[int(band[0]), len(band)] for band in np.split(self.angle_counts, edges)]

    def diag(self, z):
        """K_N(z, z) at the effective degree, the largest |f(z)|^2 / ||f||^2
        over polynomials f of that degree; nonnegative, vectorized."""
        return self.diag_at_degree(z, self.effective_degree)

    def diag_and_gap(self, z):
        """(K_N, the convergence gap (K_N - K_{N-5}) / K_N) at the effective
        degree, from one product per block; the gap is None when the
        effective degree is below GAP_STEP.  K_N is :meth:`diag` bit for bit.

        The diagonals are monotone lower bounds of the full kernel; a small
        gap is the working convergence signal (no rigorous remainder is
        claimed).
        """
        n = self.effective_degree
        if n < GAP_STEP:
            return self.diag(z), None
        return self.diag_at_degree(z, n, gap=True)

    def diag_at_degree(self, z, degree: int, gap: bool = False):
        """Kernel diagonal of the leading block of the given degree, shaped
        like z (a float for a scalar); with ``gap``, the pair (K, (K -
        K_{degree-5}) / K) from the same products.

        K = |C v(z - c)|^2 with C = L^-1 D^-1 the inverse factor.  C is lower
        triangular and the leading block of a triangular inverse is the
        inverse of the leading block, so every degree reads the leading block
        of the one C, and nested-degree diagonals are monotone by
        construction.  Points are taken in blocks of at most _BLOCK_ENTRIES
        Vandermonde entries, one product Y = V(z - c) C^T each, so the block
        and its product stay cache-sized and memory does not grow with the
        grid.  K is the sum of |Y|^2 over all columns, and K - K_{degree-5}
        the sum over the trailing columns, degrees degree-4..degree, so the
        gap is nonnegative and carries no cancellation.  Raises
        ArithmeticError at the first point where K is not finite (a power or
        its square overflowed).
        """
        if not 0 <= degree <= self.effective_degree:
            raise ValueError(
                f"degree {degree} is outside 0..{self.effective_degree}, the effective degree")
        z = np.asarray(z, dtype=complex)
        pts = z.ravel()
        n = degree + 1
        Ct = self._inverse_factor[:n, :n].T.copy()
        K = np.empty(len(pts))
        tail = np.empty(len(pts)) if gap else None
        block = max(1, _BLOCK_ENTRIES // n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(pts), block):
                sl = slice(start, start + block)
                # Y = L^-1 D^-1 v(z) per point, so sum |Y|^2 = v^H G^-1 v (not
                # v^T G^-1 conj(v)); summed on the real view, no |Y| array
                Y = (_vandermonde(pts[sl] - self.center, degree) @ Ct).view(float)
                K[sl] = np.einsum("ij,ij->i", Y, Y)
                if gap:
                    past = Y[:, max(0, 2 * (n - GAP_STEP)):]
                    tail[sl] = np.einsum("ij,ij->i", past, past)
        bad = ~np.isfinite(K)
        if bad.any():
            raise ArithmeticError(f"K_N is not finite at z = {complex(pts[np.argmax(bad)])!r}")
        if z.ndim == 0:
            K = float(K[0])
            return (K, float(tail[0]) / K) if gap else K
        K = K.reshape(z.shape)
        return (K, tail.reshape(z.shape) / K) if gap else K


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower-triangular L, by forward substitution on the identity
    one row at a time, so it is exactly lower triangular: with d the
    diagonal of L and U = diag(d)^-1 L, L^-1 = U^-1 diag(d)^-1."""
    d = L.diagonal()
    U = L / d[:, None]
    X = np.eye(len(L), dtype=L.dtype)
    for i in range(1, len(L)):
        X[i, :i] -= U[i, :i] @ X[:i, :i]
    return X / d


@functools.lru_cache(maxsize=8)
def build_kernel_estimate(w: WeightFunction, N: int, rule: QuadratureRule) -> KernelEstimate:
    """Assemble and factor the Gram matrix, degrading N if ill-conditioned.

    Cached on (w, N, rule): a weight is equal to another with the same
    family, parameters and Laplacian bounds, which fix its evaluators, and
    a rule to another with the same fields, which fix its nodes (see
    :class:`holobound.quadrature.QuadratureRule`), so an equal key gives the
    estimate the uncached build would.  A sweep that doubles the resolution
    builds each half-resolution estimate once: the certificate at 64 x 128
    reuses the 32 x 64 estimate its neighbour measured with.  Errors are
    not cached; the estimate is frozen and read-only.
    """
    center, G, d, scaled, counts = _equilibrated_gram(w, N, rule)
    effective = N
    chol = None
    while effective >= 0:
        n = effective + 1
        block = scaled[:n, :n]
        cond = float(np.linalg.cond(block))
        if cond <= CONDITION_LIMIT:
            try:
                chol = np.linalg.cholesky(block)
                break
            except np.linalg.LinAlgError:
                pass
        effective -= 1
    if chol is None:
        raise _not_positive_definite(scaled, d, N)
    return KernelEstimate(
        degree=N, center=center, gram=G,
        condition_estimate=cond,
        effective_degree=effective,
        angle_counts=counts,
        _inverse_factor=_inverse_lower(chol) / d[:effective + 1],
    )
