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
one-mode case of the same code.  For r >= R every rho is s / r, and the sum
is the multipole expansion: Phi_0 is exactly (mass / 2pi) log r and Phi_k is
(R / r)^|k| times its value at R.

Set-up.  psi is sampled once, on ``resolution`` Chebyshev-Lobatto rings per
radial piece times ``n_theta`` equispaced angles, and each ring is
transformed by one FFT.  The pieces end at the seams 1 and 2 of
``cutoff_g`` (clipped to R), so psi is smooth on each.  ``n_theta`` is not a
knob.  One tail rule, :func:`angular_modes`, sets it for every caller that
samples psi on rings (``LogPotential`` here, ``phi_at_origin`` in the
potential module, which reads the circle means alone): it doubles
``n_theta`` from 16 until the top half of the modes lies below
MODE_TAIL = 1e-14 of the largest; rounding alone leaves the ring FFT's tail
near 1e-15, below the limit.  Each doubling samples psi only at the new odd
angles (:func:`holobound.quadrature.angle_levels`, the loop the kernel's
per-ring angle counts take too).  Of the bottom half, modes 0..K are kept, with
K the last mode above MODE_TAIL of the largest on any ring (at least mode
0, so psi = 0 works): radiality is measured, not declared, and a radial psi
keeps the single mode Phi_0.  A psi that would need more than
MAX_N_THETA = 2048 angles, such as one with a jump in angle, is rejected
with a ValueError that names its tail.

Tabulation.  In the ring angle phi, s = a + (b - a)(1 - cos phi) / 2 on a
piece [a, b], the interpolant of psi_k through the rings is a cosine series:
one real FFT of the even extension of the ring values gives its
coefficients, and one inverse real FFT per Gauss-Legendre offset gives its
values at GAP_NODES nodes inside every gap between consecutive rings, both
along the contiguous last axis, with no dense interpolation matrix.  Near
s = 0, phi is proportional to sqrt(s), which weakens the s log s
singularity to phi^3 log phi.  The powers rho^k are running products in k.
The inner and outer integrals of Phi_k are accumulated ring by ring, each
step scaling the running sum by (r_j / r_{j+1})^|k| <= 1: no power of s
overflows, and the ring r = 0 contributes to mode 0 only, with no 0 * inf.
That recurrence is one blocked scan, about 2 sqrt(G) vectorised steps over
the G gaps in place of G.  This gives Phi_k at every ring.  The set-up of
oscillatory(1, 0.5) at resolution 256 (64 angles, 17 modes) takes about
12 ms, against 25 ms with a complex inverse FFT along the strided ring
axis and a Python loop over the rings (the first build in a fresh process,
medians of 11 on a 2-vCPU machine).

Evaluation.  Phi_k is smooth on each piece (it solves a regular radial ODE
with a smooth right side), so Phi_k at r < R is the barycentric interpolant
on the piece holding r; Phi is then resummed in theta, by Horner's rule in
e^{i theta}: one complex exponential per point.  No psi call is made per
point, and each distinct radius is handled once.  The interpolant takes
the "true" barycentric formula of Berrut and Trefethen (SIAM Review 46,
2004) in r, with the rings as nodes and the Chebyshev-Lobatto weights
w_j = (-1)^j (halved at both ends), both built once:

    Phi_k(r) = sum_j c_j Phi_k(r_j) / sum_j c_j,    c_j = w_j / (r - r_j).

The radii are taken in blocks of at most _BLOCK_ENTRIES (radii x rings)
entries.  Each block fills one float array c in place (a radius on a ring
gives an infinite c_j, and its row becomes one-hot, so the result is that
ring's table row exactly), multiplies it by the real view of the piece's
complex mode table, of shape (rings, 2 modes), and divides by the row sums:
no dense matrix over all radii and no complex copy of c.  The budget 2^15
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

import functools
import math

import numpy as np
from numpy.fft import irfft, rfft

from .quadrature import angle_levels, gauss_legendre

__all__ = ["bump", "cutoff_g", "angular_modes", "LogPotential"]

_TWO_PI = 2.0 * math.pi

# entry budget per block of (radii x rings)
_BLOCK_ENTRIES = 1 << 15

MODE_TAIL = 1e-14    # the top half of the angular modes must lie below this
START_N_THETA = 16   # angles per ring at which the tail rules start
MAX_N_THETA = 2048   # angles per ring beyond which psi is rejected
GAP_NODES = 16       # Gauss-Legendre nodes between consecutive rings


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


@functools.lru_cache(maxsize=8)
def _piece_rule(a: float, b: float, n: int):
    """The n Chebyshev-Lobatto rings of the piece [a, b] and the rule for its gaps.

    The rings sit at phi_j = pi j / N, N = n - 1, and every gap gets
    GAP_NODES Gauss-Legendre nodes at phi = pi (j + tau) / N.  Returns the
    rings, the gap nodes s and weights u of shape (GAP_NODES, N), with
    sum u f(s) the integral of s f(s) over each gap, and the phases
    exp(i pi m tau / N) of shape (GAP_NODES, n) for ``_at_gaps``.
    """
    N = n - 1
    rings = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * np.arange(n) / N))
    rings[0], rings[-1] = a, b
    g, gw = gauss_legendre(GAP_NODES)
    tau = 0.5 * (g + 1.0)[:, None]
    phi = np.pi * (np.arange(N) + tau) / N
    s = a + 0.5 * (b - a) * (1.0 - np.cos(phi))
    u = (np.pi / N) * 0.5 * gw[:, None] * s * 0.5 * (b - a) * np.sin(phi)
    shift = np.exp(1j * np.pi * tau * np.arange(n) / N)
    for arr in (rings, s, u, shift):
        arr.flags.writeable = False
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


def _gap_integrals(modes: np.ndarray, rings: np.ndarray, s: np.ndarray, u: np.ndarray,
                   shift: np.ndarray):
    """Per gap of one piece, the integrals of s psi_k against rho^k with
    rho = s / r_right (inner sums) and r_left / s (outer sums; log s for the
    outer mode 0), each of shape (gaps, modes), from psi_k at the rings.

    The weights u rho^k are running products in k, contracted with psi_k at
    the gap nodes by one einsum each; one weight array is alive at a time,
    and a piece's arrays are freed before the next piece is built.
    """
    K = modes.shape[-1]
    # psi_k at the gap nodes: (GAP_NODES, mode, real and imaginary, gap)
    f = _at_gaps(modes.view(float), shift).reshape(GAP_NODES, K, 2, -1)

    def integrals(w):
        parts = np.einsum("lktj,klj->jkt", f, w)
        return parts[..., 0] + 1j * parts[..., 1]

    inner = integrals(_powers(s / rings[1:], u, K))
    w = _powers(rings[:-1] / s, u, K)
    w[0] *= np.log(s)
    return inner, integrals(w)


def _powers(ratio: np.ndarray, first, count: int) -> np.ndarray:
    """first * ratio^k for k = 0..count - 1, stacked on a new first axis:
    running products, one vectorised step per k."""
    out = np.empty((count,) + ratio.shape)
    out[0] = first
    for k in range(1, count):
        np.multiply(out[k - 1], ratio, out=out[k])
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
    number of angular modes kept, are measured from the samples (module
    docstring); a radial psi keeps one mode.  psi is sampled only inside
    D(0, support_radius) and must vanish outside it.
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
        self._k = k = np.arange(modes.shape[-1])
        inner, outer = zip(*(_gap_integrals(m, *piece) for piece, m in zip(pieces, modes)))
        inner, outer = np.concatenate(inner), np.concatenate(outer)
        r = np.concatenate([rg[:-1] for rg in rings] + [rings[-1, -1:]])  # every ring once
        below, above = _ring_sums(r, inner, outer)
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
        self._moments = below[-1]  # int_0^R s psi_k (s / R)^k ds
        self.mass = _TWO_PI * float(self._moments[0].real)

    @property
    def n_modes(self) -> int:
        """The number of angular modes 0..K kept by the tail rule; 1 for a
        radial psi."""
        return len(self._k)

    def _modes_at(self, r: np.ndarray) -> np.ndarray:
        """Phi_k at the ascending radii r, shape (len(r), modes); NaN at a NaN
        radius, which sorts last."""
        k, R = self._k, self.support_radius
        out = np.full((len(r), len(k)), np.nan, dtype=complex)
        ends = np.searchsorted(r, self._knots)  # piece p holds r[ends[p]:ends[p + 1]]
        far = slice(ends[-1], np.searchsorted(r, np.inf, side="right"))
        # multipole form: every rho is s / r; mode 0 is real, and zero mass
        # gives 0 at r = inf too
        rf, m0 = r[far], self._moments[0].real
        out[far, 0] = np.log(rf) * m0 if m0 else 0.0
        out[far, 1:] = -(R / rf)[:, None] ** k[1:] * self._moments[1:] / (2.0 * k[1:])
        real = out.view(float)
        rows = max(1, min(len(r), _BLOCK_ENTRIES // self.resolution))
        c = np.empty((rows, self.resolution))
        for rings, table, lo, hi in zip(self._rings, self._table, ends[:-1], ends[1:]):
            table = table.view(float)  # (rings, 2 modes): no complex copy of c
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
                np.matmul(cb, table, out=real[start:stop])
                real[start:stop] /= total[:, None]
        return out

    def values(self, z):
        """Phi at the points z, shaped like z (a float for a scalar)."""
        z = np.asarray(z, dtype=complex)
        zs = z.ravel()
        # Phi_k depends on |z| alone: evaluate once per distinct radius
        radii, inverse = np.unique(np.abs(zs), return_inverse=True)
        modes = self._modes_at(radii)
        out = modes[inverse, 0].real
        if modes.shape[1] > 1:
            # sum_{k >= 1} Phi_k u^k by Horner's rule in u = e^{i theta}
            u = np.exp(1j * np.angle(zs))
            acc = modes[inverse, -1]
            for k in range(modes.shape[1] - 2, 0, -1):
                acc *= u
                acc += modes[inverse, k]
            out += 2.0 * (acc * u).real
        out = out.reshape(z.shape)
        return float(out) if z.ndim == 0 else out

    def __call__(self, z):
        return self.values(z)


def _ring_sums(r: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """Running sums of the gap integrals at the rings r (ascending).

    ``below[j]`` is the integral over [0, r_j] of s psi_k (s / r_j)^k, and
    ``above[j]`` that over [r_j, R] of s psi_k (r_j / s)^k (mode 0:
    int s psi_0 and int s psi_0 log s).  Moving one ring scales a sum by
    (r_j / r_{j+1})^k <= 1, so nothing overflows and r_0 = 0 contributes
    only to mode 0.  The modes k >= 1 are one :func:`_scan`: the sums
    above, taken from the outermost ring in, are the same recurrence on the
    reversed rows, so they ride along as further columns.
    """
    G, K = inner.shape
    below = np.zeros((G + 1, K), dtype=complex)
    above = np.zeros((G + 1, K), dtype=complex)
    below[1:, 0] = np.cumsum(inner[:, 0])
    above[:-1, 0] = np.cumsum(outer[::-1, 0])[::-1]
    if K > 1:
        decay = _powers(r[:-1] / r[1:], 1.0, K)[1:].T  # (r_j / r_{j+1})^k, k >= 1
        sums = _scan(np.concatenate([decay, decay[::-1]], axis=1),
                     np.concatenate([inner[:, 1:], outer[::-1, 1:]], axis=1))
        below[1:, 1:] = sums[:, :K - 1]
        above[:-1, 1:] = sums[::-1, K - 1:]
    return below, above


def _scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x_j = a_j x_{j-1} + b_j from x_{-1} = 0, along the first axis, for
    factors a in [0, 1] and complex b of shape (G, columns).

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
    x = np.zeros((blocks * L, b.shape[1]), dtype=complex)
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
