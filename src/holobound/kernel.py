"""Monomial Gram matrices and truncated reproducing-kernel diagonals.

The degree-N kernel diagonal is the quadratic form

    K_N(z, z) = v(z)^H G^{-1} v(z),   v(z) = (1, z, ..., z^N),

where G is the Gram matrix of the monomials under the weighted inner
product.  K_N(z, z) equals the supremum of |f(z)|^2 / ||f||^2 over
polynomials f of degree at most N, increases monotonically with N, and
converges to the kernel diagonal of the full space.

G is assembled on rings c + r_i e^{i theta} of the rule's disk D(c, R) with
radial weights w_i.  In the basis (z - c)^j the integral of exp(-phi)
(z - c)^m conj(z - c)^n is the ring sum of w_i r_i^(m+n) U_i(m - n), where
U_i(k) is the angular sum of exp(-phi) e^{i k theta} 2 pi / m_i on ring i at
m_i equispaced angles: one real-input FFT per ring instead of a (nodes x
(N+1)) Vandermonde product.  The density is real, so U_i(-k) = conj(U_i(k))
and the FFT's nonnegative half holds every frequency.  The radii enter as
(r_i / R)^p and R^m R^n, so no power overflows before the weight damps it.

The rings are nested Clenshaw-Curtis levels (``quadrature.clenshaw_curtis``):
level n has the rings r_k = R sin^2(pi k / 2n), k = 1..n, which are bit for
bit every other ring of level 2n.  The levels are n_r / 2^j, n_r rounded
down to even.  A build starts at the smallest level below n_r with at least
N + 1 rings (else at n_r / 2) and doubles, sampling only the new rings; a
coarser level re-weights a subset of the finer level's U_i(k).  At each
doubling it factors the finer Gram (C = L^-1 D^-1 below) and measures, with
no grid, the change eps = ||C G_coarse C^H - I||_F at the effective degree.
Every polynomial's squared norm then moves by a factor within 1 +- eps
between the levels, so for eps < 1, |K_coarse / K_fine - 1| <=
eps / (1 - eps) at every z.  The doubling stops at the first
eps <= LEVEL_TOL, or at n_r.  At N = 40, eps from 64 to 128 rings is 3e-9
to 7.5e-8 on the Gaussians and ``oscillatory(1, 0.5)`` and 1.2e-6 on
``potential_defined(1)``, and from 32 to 64 rings 1.5e-3 or more: the
smooth families stop at 128 rings at resolution 256 and 512 alike.  The
certificates take eps / (1 - eps) times their measured maximum as the
error estimate, so no coarser level is factored for them or evaluated on
their grid.  At eps >= 1 that ratio bounds nothing, and the build raises.

Each ring takes the angle count its density needs, not the rule's n_theta,
and no node array is built.  The count starts at the smallest
n_theta / 2^j above 2N (and at least START_N_THETA, where the tail rules of
the greens module start), or at n_theta when there is none, and doubles,
sampling only the new angles (:func:`holobound.quadrature.angle_levels`),
until two things hold:

* the ring's top half of modes lies below MODE_TAIL times its mode 0, over
  its equilibrated share s_i = min(1, n max_{m<=N} r_i^2m W_i / G_mm), W_i
  = w_i U_i(0) and G_mm = sum_i r_i^2m W_i over the n rings sampled
  together (a first level, or the rings a doubling adds, about half of
  each G_mm).  By Cauchy-Schwarz, r_i^(m+n) <= (r_i^2m r_i^2n)^(1/2), so a
  change of U_i(k) by MODE_TAIL U_i(0) / s_i moves an entry of the
  equilibrated Gram by about MODE_TAIL / n at most when s_i < 1 (MODE_TAIL
  when s_i = 1), and all the rings together move it by about MODE_TAIL;
* the count exceeds N plus the ring's last mode above that limit, so no
  |k| <= N is aliased.

The count never passes n_theta, and a ring whose values or share are not
finite goes there.  At n_theta the ring sum is the node sum of the rings
times n_theta equispaced angles, exact for every n_theta, odd or even,
because U_i is n_theta-periodic: a frequency past n_theta / 2 is read at its
alias.  A density with no angular structure stops at the first count, so
radiality is measured here too, with no flag: the Gaussian at N = 40 and
resolution 512 is sampled at 128 angles on each of 128 rings, 1/64 of the
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
nested degrees are monotone by construction.  A block's product holds at
most _BLOCK_ENTRIES = 2^15 entries: it and the Vandermonde block take
512 KB each at N = 40, inside the 2 MB per-core L2 cache of the Xeon they
were measured on, and memory does not grow with the grid.  On the
5025-point benchmark grid at N = 40 larger blocks were no faster and
doubled the temporaries or more, and smaller ones were slower; larger blocks
gain 12-22% only on a 200000-point grid at N = 64 (BENCH_gemm_diag.json).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import rfft

from .greens import MODE_TAIL, START_N_THETA
from .quadrature import QuadratureRule, angle_levels, clenshaw_curtis
from .weights import WeightFunction

__all__ = [
    "KernelEstimate",
    "PositiveDefinitenessError",
    "gram_matrix",
    "build_kernel_estimate",
]

MAX_DEGREE = 64
CONDITION_LIMIT = 1e12
LEVEL_TOL = 1e-6  # the change eps between two ring levels at which the doubling stops
GAP_STEP = 5  # degree step of the convergence gap of KernelEstimate.diag_and_gap

# entry budget per block of the product in KernelEstimate.diag_at_degree
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


def _ring_modes(w: WeightFunction, degree: int, center: complex, r: np.ndarray,
                w_r: np.ndarray, n_theta: int):
    """(U, counts): U[i, k] = U_i(k) for k = 0..degree on the rings c + r_i
    e^{i theta}, and the angle count each ring was sampled at.

    Every ring starts at ``_start_count`` angles and doubles, sampling only
    the new angles, until its top half of modes lies below MODE_TAIL times
    its mode 0 over its equilibrated share s_i among these rings, weighted
    by w_r, and the count exceeds degree plus its last kept mode (module
    docstring).  A ring stops at n_theta in any case, and goes there when
    its values or its share are not finite.
    """
    U = np.empty((len(r), degree + 1), dtype=complex)
    counts = np.empty(len(r), dtype=int)
    rows = np.arange(len(r))
    levels = angle_levels(lambda z: w.density(center + z), r, _start_count(n_theta, degree),
                          n_theta)
    m, values = next(levels)
    share = None
    while True:
        # the density is real, so U_i(k) = conj(F_i(k)) with F_i its
        # real-input FFT, which holds the frequencies 0..m // 2
        F = rfft(values * (2.0 * np.pi / m), axis=1)
        mag = np.abs(F)
        if share is None:
            share = _equilibrated_share(r, w_r * F[:, 0].real, degree)
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
            return U, counts
        rows = rows[~done]
        m, values = levels.send(~done)


def _equilibrated_share(r: np.ndarray, W: np.ndarray, degree: int) -> np.ndarray:
    """s_i = min(1, n_r max_m r_i^2m W_i / G_mm), G_mm = sum_i r_i^2m W_i, with
    W_i the ring's mode 0 weighted; nan where G_mm does not give one."""
    A = (r / r.max())[:, None] ** (2 * np.arange(degree + 1)) * W[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.minimum(1.0, len(r) * np.max(A / A.sum(axis=0), axis=1))


def _ring_levels(n_r: int, degree: int) -> list:
    """The ring counts of the levels a build may reach, coarsest first: the
    smallest n_r / 2^j of at least degree + 1 below the top level (n_r
    rounded down to even), else half the top level, doubling to the top."""
    top = n_r - n_r % 2
    n = top // 2
    while n % 2 == 0 and n // 2 >= degree + 1:
        n //= 2
    levels = [n]
    while levels[-1] < top:
        levels.append(2 * levels[-1])
    return levels


class _Rings:
    """The sampled rings of one (weight, degree, rule) at the finest level
    reached: its ring count ``n``, the angular sums ``U`` and the angle
    ``counts`` (module docstring)."""

    def __init__(self, w: WeightFunction, degree: int, rule: QuadratureRule, n: int):
        if rule.excluded is not None:
            raise ValueError(f"a masked_disk rule (excluding {rule.excluded!r}) "
                             f"is not a polar tensor rule")
        self.w, self.degree, self.rule = w, degree, rule
        self.n, self.U, self.counts = n, *self._sample(n, slice(None))

    def _sample(self, n: int, new: slice):
        x, u = clenshaw_curtis(n)
        R = self.rule.radius
        return _ring_modes(self.w, self.degree, self.rule.center, R * x[new],
                           R * R * u[new], self.rule.n_theta)

    def double(self):
        """Go to the level of twice the rings, sampling only the new ones:
        the finer level's odd rings k = 1, 3, ..., 2n - 1."""
        U, counts = self._sample(2 * self.n, slice(0, None, 2))
        self.U = np.stack((U, self.U), axis=1).reshape(-1, self.degree + 1)
        self.counts = np.stack((counts, self.counts), axis=1).ravel()
        self.n *= 2

    def gram(self) -> np.ndarray:
        """G_mn, the integral of exp(-phi) (z - c)^m conj(z - c)^n, by the
        ring sums of this level (module docstring)."""
        x, u = clenshaw_curtis(self.n)
        R, degree = self.rule.radius, self.degree
        # Q[p, k] = sum_i w_i (r_i / R)^p U_i(k) for p = 0..2 degree, k = 0..degree;
        # the columns -k are the conjugates, since the powers are real
        Q = (x[:, None] ** np.arange(2 * degree + 1)).T @ ((R * R * u)[:, None] * self.U)
        m = np.arange(degree + 1)
        diff = m[:, None] - m
        Qmn = Q[m[:, None] + m, np.abs(diff)]
        Qmn = np.where(diff >= 0, Qmn, Qmn.conj())
        s = R ** m
        G = s[:, None] * Qmn * s
        return 0.5 * (G + G.conj().T)  # exactly Hermitian despite FFT rounding


def _check_degree(N: int) -> None:
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    if N > MAX_DEGREE:
        raise ValueError(f"degree {N} exceeds the supported cap {MAX_DEGREE}")


def _equilibrate(G: np.ndarray, N: int):
    """(d, G / d d^T) with d the square root of G's diagonal, which must be
    positive."""
    diag = np.real(np.diag(G))
    if not np.all(diag > 0.0):
        raise PositiveDefinitenessError(float(diag.min()), N)
    d = np.sqrt(diag)
    return d, G / np.outer(d, d)


def _assemble_gram(w: WeightFunction, degree: int, rule: QuadratureRule):
    """(c, G, counts): the Gram of the rule's finest ring level sampled on its
    own, c the rule's centre and counts the angle count of each ring."""
    _check_degree(degree)
    rings = _Rings(w, degree, rule, _ring_levels(rule.n_r, degree)[-1])
    return rule.center, rings.gram(), rings.counts


def _not_positive_definite(scaled: np.ndarray, d: np.ndarray, N: int) -> PositiveDefinitenessError:
    eigs = np.linalg.eigvalsh(scaled)
    return PositiveDefinitenessError(float(eigs.min() * np.min(d) ** 2), N)


def gram_matrix(w: WeightFunction, N: int, rule: QuadratureRule) -> np.ndarray:
    """Gram matrix G_mn = integral of z^m conj(z)^n exp(-phi) on the rule's
    disk, by the ring sums of its finest level.

    Hermitian by construction (symmetrized after assembly).  The rule must
    be centred at 0, where the FFT assembly's basis (z - c)^j is the
    monomials.  Raises :class:`PositiveDefinitenessError` if the matrix does
    not factor.
    """
    if rule.center != 0:
        raise ValueError(f"gram_matrix needs a rule centred at 0, got centre {rule.center!r}")
    _, G, _ = _assemble_gram(w, N, rule)
    d, scaled = _equilibrate(G, N)
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
    monomial Gram for an origin-centred rule.  ``rings`` holds the ring
    counts of the two levels compared, coarser first, ``level_change`` their
    change eps (module docstring), and ``angle_counts`` the number of angles
    at which each ring of the finer, final level was sampled.
    """

    degree: int
    center: complex
    gram: np.ndarray
    condition_estimate: float
    effective_degree: int
    angle_counts: np.ndarray
    rings: tuple
    level_change: float
    _inverse_factor: np.ndarray = field(repr=False)

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
        like z (a float for a scalar).  With ``gap``, the pair (K,
        (K - K_{degree-5}) / K) from the same products.

        K = |C v(z - c)|^2 with C = L^-1 D^-1 the inverse factor.  C is lower
        triangular and the leading block of a triangular inverse is the
        inverse of the leading block, so every degree reads the leading block
        of the one C, and nested-degree diagonals are monotone by
        construction.  Points are taken in blocks, one product Y = V(z - c)
        C^T of at most _BLOCK_ENTRIES entries each, so the block and its
        product stay cache-sized and memory does not grow with the grid.  K
        is the sum of |Y|^2 over the columns, and K - K_{degree-5} the sum
        over the trailing columns, degrees degree-4..degree, so the gap is
        nonnegative and carries no cancellation.  Raises ArithmeticError at
        the first point where K is not finite (a power or its square
        overflowed).
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
        def shaped(a):
            return float(a[0]) if z.ndim == 0 else a.reshape(z.shape)

        return (shaped(K), shaped(tail / K)) if gap else shaped(K)


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


def _factor(d: np.ndarray, scaled: np.ndarray, N: int):
    """(effective degree, condition estimate, C = L^-1 D^-1) for the largest
    leading block of degree <= N of the equilibrated Gram whose condition
    estimate is at most CONDITION_LIMIT and which factors."""
    for effective in range(N, -1, -1):
        block = scaled[:effective + 1, :effective + 1]
        cond = float(np.linalg.cond(block))
        if cond <= CONDITION_LIMIT:
            try:
                chol = np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                continue
            return effective, cond, _inverse_lower(chol) / d[:effective + 1]
    raise _not_positive_definite(scaled, d, N)


def _level_change(C: np.ndarray, G_coarse: np.ndarray) -> float:
    """eps = ||C G_coarse C^H - I||_F on C's leading block (module docstring)."""
    n = len(C)
    return float(np.linalg.norm(C @ G_coarse[:n, :n] @ C.conj().T - np.eye(n)))


def build_kernel_estimate(w: WeightFunction, N: int, rule: QuadratureRule) -> KernelEstimate:
    """Assemble and factor the Gram matrix on nested ring levels, degrading N
    if ill-conditioned: the levels of ``_ring_levels(rule.n_r, N)`` double
    until the change eps from the coarser level is at most LEVEL_TOL, or up
    to rule.n_r rings (module docstring).  Raises ArithmeticError when the
    last change eps is 1 or more, where it bounds nothing.
    """
    _check_degree(N)
    first, *finer = _ring_levels(rule.n_r, N)
    rings = _Rings(w, N, rule, first)
    coarse = rings.gram()
    for n in finer:
        rings.double()
        G = rings.gram()
        effective, cond, C = _factor(*_equilibrate(G, N), N)
        eps = _level_change(C, coarse)
        if eps <= LEVEL_TOL or n == finer[-1]:
            break
        coarse = G
    if not eps < 1.0:
        raise ArithmeticError(
            f"ring levels {n // 2} -> {n} at resolution {rule.n_r} change the Gram by "
            f"eps = {eps:.3g} >= 1: K_N is unresolved; raise the resolution")
    return KernelEstimate(
        degree=N, center=rule.center, gram=G,
        condition_estimate=cond,
        effective_degree=effective,
        angle_counts=rings.counts,
        rings=(n // 2, n),
        level_change=eps,
        _inverse_factor=C,
    )
