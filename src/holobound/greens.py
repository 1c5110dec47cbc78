"""Fundamental solution of the planar Laplacian and log-potential convolution.

The convolution engine evaluates Phi = Gamma * psi for a smooth density psi
supported in a disk D(0, R) around the origin, by Fourier modes in angle and
1-D integrals in radius (the Fourier-in-angle disk solver of Borges and
Daripa).  With z = r e^{i theta}, zeta = s e^{i theta'} and
rho = min(r, s) / max(r, s),

    log|z - zeta| = log max(r, s) - sum_{k >= 1} (1/k) rho^k cos k(theta - theta'),

so, with psi_k(s) the angular Fourier coefficients of psi on |zeta| = s,

    Phi(r, theta) = sum_k Phi_k(r) e^{i k theta},
    Phi_0(r) = integral from 0 to R of s psi_0(s) log max(r, s) ds,
    Phi_k(r) = -(1 / 2|k|) integral from 0 to R of s psi_k(s) rho^|k| ds.

Phi_0 is the circle-mean identity (Jensen's formula); a radial psi is the
one-column case of the same code.  For r >= R every rho is s / r, and the sum
is the multipole expansion: Phi_0 is exactly (mass / 2pi) log r and Phi_k is
(R / r)^|k| times its value at R.

Set-up.  psi is sampled once, on ``resolution`` Chebyshev-Lobatto rings per
radial piece times ``n_theta`` equispaced angles, and each ring is
transformed by one FFT.  The pieces end at the seams 1 and 2 of
``cutoff_g`` (clipped to R), so psi is smooth on each.  ``n_theta`` is not a
knob.  One tail rule, :func:`angular_modes`, sets it for every caller that
evaluates psi on rings (``LogPotential`` here, ``phi_at_origin`` in the
potential module, which reads the circle means alone): it doubles
``n_theta`` from 16 until the top half of the modes lies below
MODE_TAIL = 1e-14 of the largest; rounding alone leaves the ring FFT's tail
near 1e-15, below the limit.  Each doubling evaluates psi only at the new odd
angles (:func:`holobound.quadrature.angle_levels`, the loop the kernel's
per-ring angle counts take too).  Of the bottom half, modes 0..K are kept, with
K the last mode above MODE_TAIL of the largest on any ring (at least mode
0, so psi = 0 works): radiality is measured, not declared, and a radial psi
keeps the single mode Phi_0.  A psi that would need more than
MAX_N_THETA = 2048 angles, such as one with a jump in angle, is rejected
with a ValueError that names its tail.

Live columns.  Each kept mode is two real columns, the real and the
imaginary part of psi_k (column 2k + 1 is Im psi_k).  Only the live ones
are carried on: those whose peak over all rings exceeds MODE_TAIL of the
largest mode, the limit of the tail rule, and mode 0's real part always (so
psi = 0 works and table column 0 is Phi_0).  Symmetry leaves most columns
at rounding: oscillatory(1, 0.5) keeps 5 of 34, the real parts of modes 0,
4, 8, 12 and 16 (four-fold and mirror symmetry); the bump translated by
0.5 along the real axis 187 of 374, the real parts; a radial psi 1 of 2.
Everything below, the gap values, the weights, the ring sums, the table,
the moments and the evaluation, runs on the live columns alone.

Tabulation.  In the ring angle phi, s = a + (b - a)(1 - cos phi) / 2 on a
piece [a, b], the interpolant of psi_k through the rings is a cosine series:
one real FFT of the even extension of the ring values gives its
coefficients, and one inverse real FFT per gap offset gives its values at
GAP_NODES nodes in every gap between consecutive rings, both along the
contiguous last axis, with no dense interpolation matrix.  The offsets are
the squares of the Clenshaw-Curtis nodes (``_piece_rule``), the substitution
``phi_at_origin`` makes too.  Near s = 0, phi is proportional to sqrt(s),
which weakens the s log s singularity to phi^3 log phi.  The weights rho^k
are running products over the live k, a gap of d modes one product by rho^d.
The inner and outer integrals of Phi_k are accumulated ring by ring, each
step scaling the running sum by (r_j / r_{j+1})^|k| <= 1: no power of s
overflows, and the ring r = 0 contributes to mode 0 only, with no 0 * inf.
That recurrence is one blocked scan, about 2 sqrt(G) vectorised steps over
the G gaps in place of G.  This gives Phi_k at every ring.  The set-up of
oscillatory(1, 0.5) at resolution 256 (64 angles, 17 modes, 5 live
columns) takes about 8 ms, against 15 ms with all 34 columns (the first
build in a fresh process, medians of 11 on a 2-vCPU machine); the bump
translated by 0.5 at resolution 320 about 0.13 s, against 0.22 s.

Evaluation.  Phi_k is smooth on each piece (it solves a regular radial ODE
with a smooth right side), so Phi_k at r < R is the barycentric interpolant
on the piece holding r; Phi is then resummed in theta, by Horner's rule in
u = e^{i theta} over the live modes, stepping by u^d across a gap of d: one
complex exponential per point.  No psi call is made per
point, and each distinct radius is handled once.  The interpolant takes
the "true" barycentric formula of Berrut and Trefethen (SIAM Review 46,
2004) in r, with the rings as nodes and the Chebyshev-Lobatto weights
w_j = (-1)^j (halved at both ends), both built once:

    Phi_k(r) = sum_j c_j Phi_k(r_j) / sum_j c_j,    c_j = w_j / (r - r_j).

The radii are taken in blocks of at most _BLOCK_ENTRIES (radii x rings)
entries.  Each block fills one float array c in place (a radius on a ring
gives an infinite c_j, and its row becomes one-hot, so the result is that
ring's table row exactly), multiplies it by the piece's real table of the
live columns, of shape (rings, columns), and divides by the row sums: no
dense matrix over all radii and no complex copy of c.  For
oscillatory(1, 0.5) at resolution 256 a block's product is about
128 x 256 x 5; in fresh processes with OpenBLAS's default threads none of
its evaluations stalled, where the 128 x 256 x 34 product of all columns
took about 55 ms in place of 2 ms in some of them.  The budget 2^15
was chosen from fresh-process runs of the potential benchmark op on a
2-vCPU machine, where larger blocks raised the peak RSS (2^18: 43 MB,
2^20: 45 MB, against 39.8 MB) without a faster pass.

The rings do not depend on z, so the error is a smooth function of z.  That
matters when finite-difference stencils are applied to Phi: a z-dependent
rule would turn tiny quadrature noise into large stencil residuals.  With
step 1e-2 the Poisson check sees the stencil's own h^2/12 error and nothing
of the quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import irfft, rfft

from .quadrature import angle_levels, clenshaw_curtis

__all__ = ["bump", "cutoff_g", "angular_modes", "LogPotential"]

_TWO_PI = 2.0 * math.pi

# entry budget per block of (radii x rings)
_BLOCK_ENTRIES = 1 << 15

MODE_TAIL = 1e-14    # the top half of the angular modes must lie below this
START_N_THETA = 16   # angles per ring at which the tail rules start
MAX_N_THETA = 2048   # angles per ring beyond which psi is rejected
GAP_NODES = 16       # Clenshaw-Curtis nodes between consecutive rings


def bump(t):
    """exp(-1/t) for t > 0, exactly 0 otherwise; the C-infinity ramp."""
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    out = np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def cutoff_g(z):
    """Smooth radial cutoff: exactly 1 on |z| <= 1, exactly 0 on |z| >= 2.

    g(z) = q(2 - |z|) / (q(2 - |z|) + q(|z| - 1)) with q the exponential
    ramp; values lie in [0, 1] and g(|z| = 1.5) = 1/2 by symmetry.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    a = bump(2.0 - r)
    b = bump(r - 1.0)
    out = np.asarray(a / (np.asarray(a) + b))
    return float(out) if out.ndim == 0 else out


def _piece_rule(a: float, b: float, n: int):
    """The n Chebyshev-Lobatto rings of the piece [a, b] and the rule for its gaps.

    The rings sit at phi_j = pi j / N, N = n - 1, and every gap gets
    GAP_NODES nodes at phi = pi (j + tau) / N, tau = x^2 for the nodes x of
    ``clenshaw_curtis(GAP_NODES)``, with weights 2 u: the integral of f over
    tau in [0, 1] is 2 times that of x f(x^2) over x in [0, 1].  The node
    x = 0 is dropped, so no gap node sits on a ring's left end, and log s
    stays finite at s = 0.  Returns the
    rings, the gap nodes s and weights u of shape (GAP_NODES, N), with
    sum u f(s) the integral of s f(s) over each gap, and the phases
    exp(i pi m tau / N) of shape (GAP_NODES, n) for ``_at_gaps``.
    """
    N = n - 1
    rings = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * np.arange(n) / N))
    rings[0], rings[-1] = a, b
    x, xw = clenshaw_curtis(GAP_NODES)
    tau = (x * x)[:, None]
    phi = np.pi * (np.arange(N) + tau) / N
    s = a + 0.5 * (b - a) * (1.0 - np.cos(phi))
    u = (np.pi / N) * 2.0 * xw[:, None] * s * 0.5 * (b - a) * np.sin(phi)
    shift = np.exp(1j * np.pi * tau * np.arange(n) / N)
    return rings, s, u, shift


def _at_gaps(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Interpolate real columns given at the n rings of a piece to its gap
    nodes, shape (GAP_NODES, columns, n - 1).

    In phi the interpolant is the cosine series sum_m c_m cos(m phi).  The
    even extension of the values has real Fourier coefficients
    R_m = Re rfft, and c_m is R_m / N, halved at m = 0 and m = N.  At the
    nodes pi (j + tau) / N of every gap j the series is therefore the first
    N values of one inverse real FFT of R_m exp(i pi m tau / N), of length
    2N: its 1/(2N) and its doubling of the modes 0 < m < N give the c_m
    exactly, and of the end modes it reads only the real part, which is
    R_N cos(pi tau) (-1)^j = R_N cos(pi N (j + tau) / N).  Both transforms
    run along the contiguous last axis of values.T, one inverse FFT per
    offset tau: no dense matrix.
    """
    N = len(values) - 1
    cols = values.T
    coef = rfft(np.concatenate([cols, cols[:, -2:0:-1]], axis=1)).real
    out = np.empty((len(shift), values.shape[1], N))
    for l, phase in enumerate(shift):
        out[l] = irfft(coef * phase, n=2 * N)[:, :N]
    return out


def _gap_integrals(values: np.ndarray, k: np.ndarray, rings: np.ndarray, s: np.ndarray,
                   u: np.ndarray, shift: np.ndarray):
    """Per gap of one piece, the integrals of s f against rho^k with
    rho = s / r_right (inner sums) and r_left / s (outer sums; log s for the
    outer mode 0), each of shape (gaps, columns), from the live real columns
    f of psi_k at the rings, shape (rings, columns), of the modes k.

    The weights u rho^k, one per column, are running products over the live
    k (:func:`_powers`), contracted with the columns at the gap nodes by one
    einsum each; one weight array is alive at a time, and a piece's arrays
    are freed before the next piece is built.
    """
    f = _at_gaps(values, shift)  # (GAP_NODES, column, gap)
    inner = np.einsum("lcj,clj->jc", f, _powers(s / rings[1:], u, k))
    w = _powers(rings[:-1] / s, u, k)
    w[0] *= np.log(s)  # column 0 is mode 0
    return inner, np.einsum("lcj,clj->jc", f, w)


def _powers(ratio: np.ndarray, first, k: np.ndarray) -> np.ndarray:
    """first * ratio^k for the ascending integers k, stacked on a new first
    axis: running products, one vectorised step per entry.  A step of d > 1
    multiplies by ratio^d, taken once per distinct d; a repeated k copies."""
    out = np.empty((len(k),) + ratio.shape)
    steps = {1: ratio}
    prev = first
    for i, d in enumerate(np.diff(k, prepend=0).tolist()):
        if d == 0:
            out[i] = prev
        else:
            if d not in steps:
                steps[d] = ratio ** d
            np.multiply(prev, steps[d], out=out[i])
        prev = out[i]
    return out


def angular_modes(psi, rings: np.ndarray) -> tuple:
    """The tail rule: the angles per ring, and psi_k on every ring with shape
    rings.shape + (modes,).

    ``n_theta`` doubles from START_N_THETA, sampling psi only at the new
    angles (:func:`holobound.quadrature.angle_levels`), until the top half of
    the modes lies below MODE_TAIL of the largest; modes 0..K are kept, K
    the last above that limit on any ring (module docstring).  psi with more
    than MAX_N_THETA angles is rejected.  :class:`LogPotential` and
    :func:`holobound.potential.phi_at_origin` both take their angles here.
    """
    for n_theta, values in angle_levels(psi, rings, START_N_THETA, MAX_N_THETA):
        modes = rfft(values, axis=-1) / n_theta
        mag = np.abs(modes).reshape(-1, modes.shape[-1])
        largest = float(mag.max())
        tail = float(mag[:, n_theta // 4 + 1:].max())
        if tail <= MODE_TAIL * largest:
            # the last mode above the limit on any ring, or mode 0 alone
            above = np.flatnonzero(mag.max(axis=0) > MODE_TAIL * largest)
            kept = above[-1] + 1 if above.size else 1
            return n_theta, np.ascontiguousarray(modes[..., :kept])
    raise ValueError(
        f"psi is not resolved in angle: with {n_theta} angles per ring "
        f"the top half of its Fourier modes reaches {tail / largest:.1e} "
        f"of the largest, above the tail limit {MODE_TAIL:.0e}")


class LogPotential:
    """Evaluator for Phi = Gamma * psi with psi supported in D(0, support_radius).

    ``resolution`` is the number of Chebyshev-Lobatto rings per radial
    piece.  ``n_theta``, the number of angles per ring, and ``n_modes``, the
    number of angular modes 0..K kept by the tail rule, are measured from
    the ring values (module docstring); a radial psi keeps one mode.
    ``n_columns`` is the number of live real columns (mode, real or
    imaginary part) carried through the set-up and the evaluation.  psi is
    sampled only inside D(0, support_radius) and must vanish outside it.
    """

    def __init__(self, psi, support_radius: float = 2.0, resolution: int = 256):
        if support_radius <= 0:
            raise ValueError("support_radius must be positive")
        if resolution < 8:
            raise ValueError(f"resolution must be >= 8, got {resolution}")
        self.psi = psi
        self.support_radius = R = float(support_radius)
        self.resolution = n = int(resolution)
        # pieces end at the seams of cutoff_g, so psi is smooth on each
        self._knots = np.array(sorted({0.0, min(1.0, R), min(2.0, R), R}))
        pieces = [_piece_rule(float(a), float(b), n)
                  for a, b in zip(self._knots[:-1], self._knots[1:])]
        rings = np.stack([p[0] for p in pieces])
        self.n_theta, modes = angular_modes(psi, rings)
        self.n_modes = modes.shape[-1]
        # the live columns of the real view (column 2k + 1 is Im psi_k): peak
        # over the rings above the tail limit; mode 0's real part always
        real = modes.view(float)
        peak = np.abs(real).max(axis=(0, 1))
        live = peak > MODE_TAIL * float(np.abs(modes).max())
        live[0] = True
        self._columns = np.flatnonzero(live)
        self._k = k = self._columns // 2
        columns = np.ascontiguousarray(real[..., self._columns])
        inner, outer = zip(*(_gap_integrals(c, k, *piece) for piece, c in zip(pieces, columns)))
        inner, outer = np.concatenate(inner), np.concatenate(outer)
        r = np.concatenate([rg[:-1] for rg in rings] + [rings[-1, -1:]])  # every ring once
        below, above = _ring_sums(r, k, inner, outer)
        table = np.empty_like(below)
        log_r = np.log(np.where(r > 0.0, r, 1.0))  # r = 0 meets zero mass only
        table[:, 0] = log_r * below[:, 0] + above[:, 0]
        table[:, 1:] = -(below[:, 1:] + above[:, 1:]) / (2.0 * k[1:])
        step = n - 1
        self._table = np.stack([table[i * step:i * step + n] for i in range(len(pieces))])
        self._rings = rings
        # barycentric weights of n Chebyshev-Lobatto points (Berrut and Trefethen)
        self._weights = (-1.0) ** np.arange(n)
        self._weights[[0, -1]] *= 0.5
        self._moments = below[-1]  # int_0^R s psi_k (s / R)^k ds, per column
        self.mass = _TWO_PI * float(self._moments[0])

    @property
    def n_columns(self) -> int:
        """The number of live real columns; 1 for a radial psi."""
        return len(self._columns)

    def _modes_at(self, r: np.ndarray) -> np.ndarray:
        """The live columns of Phi_k at the ascending radii r, shape
        (len(r), columns); NaN at a NaN radius, which sorts last."""
        k, R = self._k, self.support_radius
        out = np.full((len(r), len(k)), np.nan)
        ends = np.searchsorted(r, self._knots)  # piece p holds r[ends[p]:ends[p + 1]]
        far = slice(ends[-1], np.searchsorted(r, np.inf, side="right"))
        # multipole form: every rho is s / r; zero mass gives 0 at r = inf too
        rf, m0 = r[far], self._moments[0]
        out[far, 0] = np.log(rf) * m0 if m0 else 0.0
        out[far, 1:] = -(R / rf)[:, None] ** k[1:] * self._moments[1:] / (2.0 * k[1:])
        rows = max(1, min(len(r), _BLOCK_ENTRIES // self.resolution))
        c = np.empty((rows, self.resolution))
        for rings, table, lo, hi in zip(self._rings, self._table, ends[:-1], ends[1:]):
            for start in range(lo, hi, len(c)):
                stop = min(start + len(c), hi)
                cb = c[:stop - start]
                with np.errstate(divide="ignore", over="ignore"):
                    np.divide(self._weights, np.subtract(r[start:stop, None], rings, out=cb),
                              out=cb)
                total = cb.sum(axis=1)
                hit = np.isinf(total)  # r on a ring: the interpolant is its table row
                if hit.any():
                    cb[hit] = np.isinf(cb[hit])
                    total[hit] = 1.0
                np.matmul(cb, table, out=out[start:stop])
                out[start:stop] /= total[:, None]
        return out

    def values(self, z):
        """Phi at the points z, shaped like z (a float for a scalar)."""
        z = np.asarray(z, dtype=complex)
        zs = z.ravel()
        # Phi_k depends on |z| alone: evaluate once per distinct radius
        radii, inverse = np.unique(np.abs(zs), return_inverse=True)
        modes = self._modes_at(radii)
        out = modes[inverse, 0]
        if len(self._k) > 1:
            # sum_{k >= 1} Phi_k u^k by Horner's rule in u = e^{i theta} over
            # the live modes, stepping by u^d across a gap of d (the last step
            # from k_1 to mode 0); a column 2k + 1 adds to the imaginary part
            u = np.exp(1j * np.angle(zs))
            k, imag = self._k.tolist(), (self._columns % 2).tolist()
            steps = {d: u ** d for d in set(np.diff(k).tolist()) - {0}}
            acc = np.zeros(len(zs), dtype=complex)
            for i in range(len(k) - 1, 0, -1):
                part = acc.imag if imag[i] else acc.real
                part += modes[inverse, i]
                if k[i] > k[i - 1]:
                    acc *= steps[k[i] - k[i - 1]]
            out += 2.0 * acc.real
        out = out.reshape(z.shape)
        return float(out) if z.ndim == 0 else out

    def __call__(self, z):
        return self.values(z)


def _ring_sums(r: np.ndarray, k: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """Running sums of the gap integrals at the rings r (ascending), per
    column of the modes k (ascending, k[0] = 0 alone).

    ``below[j]`` is the integral over [0, r_j] of s f (s / r_j)^k, and
    ``above[j]`` that over [r_j, R] of s f (r_j / s)^k (column 0:
    int s f and int s f log s).  Moving one ring scales a sum by
    (r_j / r_{j+1})^k <= 1, so nothing overflows and r_0 = 0 contributes
    only to mode 0.  The columns k >= 1 are one :func:`_scan`, with decay
    factors for those k alone: the sums above, taken from the outermost
    ring in, are the same recurrence on the reversed rows, so they ride
    along as further columns.
    """
    G, C = inner.shape
    below = np.zeros((G + 1, C))
    above = np.zeros((G + 1, C))
    below[1:, 0] = np.cumsum(inner[:, 0])
    above[:-1, 0] = np.cumsum(outer[::-1, 0])[::-1]
    if C > 1:
        decay = _powers(r[:-1] / r[1:], 1.0, k[1:]).T  # (r_j / r_{j+1})^k, k >= 1
        sums = _scan(np.concatenate([decay, decay[::-1]], axis=1),
                     np.concatenate([inner[:, 1:], outer[::-1, 1:]], axis=1))
        below[1:, 1:] = sums[:, :C - 1]
        above[:-1, 1:] = sums[::-1, C - 1:]
    return below, above


def _scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x_j = a_j x_{j-1} + b_j from x_{-1} = 0, along the first axis, for
    factors a in [0, 1] and real b of shape (G, columns).

    A blocked scan (Blelloch, "Prefix sums and their applications", 1990):
    the rows split into blocks of L = isqrt(G), padded with a = 1, b = 0.
    One vectorised step per position scans every block from zero at once
    and keeps the running product of a within it; one step per block
    carries the true end of each block into the next; one product adds the
    carries.  That is about 2 sqrt(G) steps in place of G, and every factor
    is a product of a's, so nothing exceeds 1.
    """
    G = len(a)
    L = math.isqrt(G)
    blocks = -(-G // L)
    x = np.zeros((blocks * L, b.shape[1]))
    p = np.ones_like(x)
    x[:G], p[:G] = b, a
    x, p = x.reshape(blocks, L, -1), p.reshape(blocks, L, -1)
    for i in range(1, L):
        x[:, i] += p[:, i] * x[:, i - 1]
        p[:, i] *= p[:, i - 1]
    carry = np.zeros_like(x[:, 0])  # the sum just before each block
    for blk in range(1, blocks):
        carry[blk] = p[blk - 1, -1] * carry[blk - 1] + x[blk - 1, -1]
    x += p * carry[:, None]
    return x.reshape(blocks * L, -1)[:G]
