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

Set-up.  psi is sampled on Chebyshev-Lobatto rings per radial piece times
``n_theta`` equispaced angles, and each ring is transformed by one FFT.  The
pieces end at the seams 1 and 2 of ``cutoff_g`` (clipped to R), so psi is
smooth on each.  The rings come in nested levels, as in Clenshaw-Curtis
quadrature (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
SIAM Review 50, 2008): level n has n = 2^k + 1 rings per piece, at the
angles pi j / (n - 1), and its rings are the even rings of level 2n - 1, bit
for bit (pi (2j) / 2N rounds like pi j / N).  The ladder starts at
FIRST_RINGS = 33 and doubles up to the smallest 2^k + 1 of at least
``resolution``, so ``resolution`` is a cap that never gives fewer rings than
it names: 256 allows 257, 320 allows 513, and a cap of 33 or less builds one
level.  Each finer level samples psi only at its new, odd rings, at the
level below's ``n_theta``, takes the tail rule's test, ``n_modes`` and the
live columns (below) again over all its rings, and tabulates Phi_k anew.
The ladder stops at the first level whose change from the level below is
at most LEVEL_TOL = 1e-9 of the largest |Phi_k| on the finer level's
rings, and at the top level anyway.  The change needs no grid: at each of
the finer level's rings it bounds the change of Phi at every angle,
|dPhi_0| + 2 sum over the other live columns of |dPhi_k|, with dPhi_k the
difference between the coarser level's interpolant (Evaluation, below)
and the finer table; Phi comes from the finer level.  A bound on Phi, not
the largest single column, since many columns can add up: the bump
translated by 0.5 along the real axis (185 live columns at 33 rings)
changes by 3.1e-10 in its largest column, while Phi on 33 rings is 6.1e-9
of max |Phi| off.  On the potential experiment's densities (gaussian,
gaussian_harmonic b = 0.3, oscillatory (1, 0.5) and (1, 2),
potential_defined(1)) and on the bump cutoff_g, 33 -> 65 rings change by
3.2e-11 to 8.1e-11, so each stops at 65 rings, within 5.0e-15 of max |Phi|
of a 1025-ring build at the Poisson check's stencils.  The translated
bump, whose seams |z + 0.5| = 1 and 2 cross the rings, changes by 3.5e-9
and stops at 129 rings, within 3.3e-15 (at 65 rings it is 8.7e-12 off).
Every level's ring transforms have length 2^(k+1), which the FFT takes
fastest.

``n_theta`` is not a knob.  One tail rule, :func:`angular_modes`, sets it for
every caller that evaluates psi on rings (``LogPotential`` here, on its
first level, and on a finer level whose new rings fail its test, and
``phi_at_origin`` in the potential module, which reads the
circle means alone): it doubles ``n_theta`` from 32, twice START_N_THETA,
until the top half of the modes lies below MODE_TAIL = 1e-14 of the
largest; rounding alone leaves the ring FFT's tail near 1e-15, below the
limit.  Each doubling evaluates psi only at the new odd angles
(:func:`holobound.quadrature.angle_levels`, the loop the kernel's per-ring
angle counts take too).  Of the bottom half, modes 0..K are kept, with K
the last mode above MODE_TAIL of the largest on any ring (at least mode 0,
so psi = 0 works): radiality is measured, not declared, and a radial psi
keeps the single mode Phi_0.  A psi that would need more than
MAX_N_THETA = 2048 angles, such as one with a jump in angle, is rejected
with a ValueError that names its tail.

Live columns.  Each kept mode is two real columns, the real and the
imaginary part of psi_k (column 2k + 1 is Im psi_k).  Only the live ones
are carried on: those whose peak over all rings exceeds MODE_TAIL of the
largest mode, the limit of the tail rule, and mode 0's real part always (so
psi = 0 works and table column 0 is Phi_0).  Symmetry leaves most columns
at rounding: oscillatory(1, 0.5) keeps 5 of 34, the real parts of modes 0,
4, 8, 12 and 16 (four-fold and mirror symmetry); the translated bump at
129 rings 187 of 376, the real parts (185 on the first level's rings
alone); a radial psi 1 of 2.
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
the G gaps in place of G.  This gives Phi_k at every ring.  The pieces of a
level go through every step together, in one array.  The set-up of
oscillatory(1, 0.5) at resolution 256 (64 angles, 17 modes, 5 live
columns, levels of 33 and 65 rings) takes about 3.3 ms, against 7.6 ms on
256 rings alone (the first build in a fresh process, medians of 7 to 11 on
a 2-vCPU machine); the translated bump at resolution 320 (1024 angles,
187 live columns, levels of 33, 65 and 129 rings) about 93 ms, against
0.16 s on 320 rings.

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
oscillatory(1, 0.5) at 256 rings a block's product was about
128 x 256 x 5; in fresh processes with OpenBLAS's default threads none of
its evaluations stalled, where the 128 x 256 x 34 product of all columns
took about 55 ms in place of 2 ms in some of them.  At the 65 rings the
ladder stops at, a block holds up to 504 radii.  The budget 2^15
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

# entry budget per block of (radii x rings), and of (gap offsets x columns x modes)
_BLOCK_ENTRIES = 1 << 15

MODE_TAIL = 1e-14    # the top half of the angular modes must lie below this
START_N_THETA = 16   # angles per ring at which the tail rules start
MAX_N_THETA = 2048   # angles per ring beyond which psi is rejected
GAP_NODES = 16       # Clenshaw-Curtis nodes between consecutive rings
FIRST_RINGS = 33     # rings per radial piece of the first ring level
LEVEL_TOL = 1e-9     # change of Phi_k between ring levels, per its largest, that stops the ladder


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


def _piece_rule(knots: np.ndarray, n: int):
    """The n Chebyshev-Lobatto rings of every piece [a, b] between
    consecutive knots, and the rule for their gaps.

    The rings sit at phi_j = pi j / N, N = n - 1, and every gap gets
    GAP_NODES nodes at phi = pi (j + tau) / N, tau = x^2 for the nodes x of
    ``clenshaw_curtis(GAP_NODES)``, with weights 2 u: the integral of f over
    tau in [0, 1] is 2 times that of x f(x^2) over x in [0, 1].  The node
    x = 0 is dropped, so no gap node sits on a ring's left end, and log s
    stays finite at s = 0.  Returns the rings, shape (pieces, n), the gap
    nodes s and weights u of shape (pieces, GAP_NODES, N), with sum u f(s)
    the integral of s f(s) over each gap, and the phases
    exp(i pi m tau / N) of shape (GAP_NODES, n) for ``_at_gaps``.
    """
    N = n - 1
    a, b = knots[:-1, None], knots[1:, None]
    h = 0.5 * (b - a)
    rings = a + h * (1.0 - np.cos(np.pi * np.arange(n) / N))
    rings[:, 0], rings[:, -1] = knots[:-1], knots[1:]
    x, xw = clenshaw_curtis(GAP_NODES)
    tau = (x * x)[:, None]
    phi = np.pi * (np.arange(N) + tau) / N
    a, h = a[:, None], h[:, None]
    s = a + h * (1.0 - np.cos(phi))
    u = (np.pi / N) * 2.0 * xw[:, None] * s * h * np.sin(phi)
    shift = np.exp(1j * np.pi * tau * np.arange(n) / N)
    return rings, s, u, shift


def _at_gaps(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Interpolate real columns given at the n rings of each piece to its
    gap nodes: values of shape (..., n, columns) give shape
    (GAP_NODES, ..., columns, n - 1).

    In phi the interpolant is the cosine series sum_m c_m cos(m phi).  The
    even extension of the values has real Fourier coefficients
    R_m = Re rfft, and c_m is R_m / N, halved at m = 0 and m = N.  At the
    nodes pi (j + tau) / N of every gap j the series is therefore the first
    N values of one inverse real FFT of R_m exp(i pi m tau / N), of length
    2N: its 1/(2N) and its doubling of the modes 0 < m < N give the c_m
    exactly, and of the end modes it reads only the real part, which is
    R_N cos(pi tau) (-1)^j = R_N cos(pi N (j + tau) / N).  Both transforms
    run along the contiguous last axis of the transposed values, with no
    dense matrix.  The inverse FFTs take as many offsets tau at once as fit
    in _BLOCK_ENTRIES (offsets x pieces x columns x modes): all GAP_NODES of
    them at the ladder's small levels, where one call per offset cost about
    six times as much (33 rings, one column), and one at a time for many
    columns.
    """
    N = values.shape[-2] - 1
    cols = np.swapaxes(values, -1, -2)
    coef = rfft(np.concatenate([cols, cols[..., -2:0:-1]], axis=-1)).real
    phase = shift.reshape(shift.shape[:1] + (1,) * (coef.ndim - 1) + shift.shape[1:])
    out = np.empty(shift.shape[:1] + cols.shape[:-1] + (N,))
    step = max(1, _BLOCK_ENTRIES // coef.size)
    for lo in range(0, len(shift), step):
        out[lo:lo + step] = irfft(coef * phase[lo:lo + step], n=2 * N)[..., :N]
    return out


def _gap_integrals(values: np.ndarray, k: np.ndarray, rings: np.ndarray, s: np.ndarray,
                   u: np.ndarray, shift: np.ndarray):
    """Per gap, the integrals of s f against rho^k with rho = s / r_right
    (inner sums) and r_left / s (outer sums; log s for the outer mode 0),
    each of shape (gaps, columns) with the pieces' gaps in order, from the
    live real columns f of psi_k at the rings, shape (pieces, rings,
    columns), of the modes k, and the pieces' rule (:func:`_piece_rule`).

    The weights u rho^k, one per column, are running products over the live
    k (:func:`_powers`), contracted with the columns at the gap nodes by one
    einsum each; one weight array is alive at a time.
    """
    f = _at_gaps(values, shift)  # (GAP_NODES, piece, column, gap)
    inner = np.einsum("lpcj,cplj->pjc", f, _powers(s / rings[:, None, 1:], u, k))
    w = _powers(rings[:, None, :-1] / s, u, k)
    w[0] *= np.log(s)  # column 0 is mode 0
    outer = np.einsum("lpcj,cplj->pjc", f, w)
    return inner.reshape(-1, len(k)), outer.reshape(-1, len(k))


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

    ``n_theta`` doubles from 2 START_N_THETA, sampling psi only at the new
    angles (:func:`holobound.quadrature.angle_levels`), until the top half of
    the modes lies below MODE_TAIL of the largest; modes 0..K are kept, K
    the last above that limit on any ring (module docstring).  psi with more
    than MAX_N_THETA angles is rejected.  :class:`LogPotential` and
    :func:`holobound.potential.phi_at_origin` both take their angles here.

    The test never passes at START_N_THETA angles, where mode 12 folds onto
    mode 4 and a sin(8 theta) vanishes at every angle, both with the top
    half at rounding.  The limit that remains is the same one doubled: a
    mode that folds into the bottom half at 32 angles, with nothing left in
    the top half, still escapes.
    """
    n_theta, spectrum = _angular_spectrum(psi, rings)
    return n_theta, np.ascontiguousarray(spectrum[..., :_kept_modes(np.abs(spectrum))])


def _angular_spectrum(psi, rings: np.ndarray) -> tuple:
    """The doubling loop of :func:`angular_modes`: the angles per ring and
    every mode 0..n_theta / 2 of psi on the rings, shape rings.shape +
    (n_theta // 2 + 1,)."""
    for n_theta, values in angle_levels(psi, rings, 2 * START_N_THETA, MAX_N_THETA):
        spectrum = rfft(values, axis=-1) / n_theta
        tail = _tail(spectrum)
        if tail <= MODE_TAIL:
            return n_theta, spectrum
    raise ValueError(
        f"psi is not resolved in angle: with {n_theta} angles per ring "
        f"the top half of its Fourier modes reaches {tail:.1e} "
        f"of the largest, above the tail limit {MODE_TAIL:.0e}")


def _tail(spectrum: np.ndarray) -> float:
    """The largest of the top half of the modes (past n_theta / 4) on any
    ring, per the largest mode; 0 for psi = 0."""
    mag = np.abs(spectrum).reshape(-1, spectrum.shape[-1])
    largest = float(mag.max())
    n_theta = 2 * (spectrum.shape[-1] - 1)
    return float(mag[:, n_theta // 4 + 1:].max()) / largest if largest else 0.0


def _kept_modes(mag: np.ndarray) -> int:
    """K + 1, for K the last mode whose magnitude exceeds MODE_TAIL of the
    largest on any ring; 1 when none does."""
    peak = mag.reshape(-1, mag.shape[-1]).max(axis=0)
    above = np.flatnonzero(peak > MODE_TAIL * float(peak.max()))
    return int(above[-1]) + 1 if above.size else 1


class LogPotential:
    """Evaluator for Phi = Gamma * psi with psi supported in D(0, support_radius).

    ``resolution`` caps the Chebyshev-Lobatto rings per radial piece: the
    ring levels 2^k + 1 double from FIRST_RINGS up to the smallest one of at
    least ``resolution``, and stop at the first level whose change from the
    level below is at most LEVEL_TOL (module docstring).  ``rings`` holds
    the ring counts of the two levels compared, coarser first, and
    ``level_change`` their change; every cap from 8 to FIRST_RINGS builds
    the one level of FIRST_RINGS rings, with ``rings`` that level alone and
    ``level_change`` None.  ``n_theta``, the number of angles per ring, and
    ``n_modes``, the number of angular modes 0..K kept by the tail rule,
    are measured over every ring of the last level; a radial psi keeps one
    mode.  ``n_columns`` is the number of live real columns (mode, real or
    imaginary part) carried through the set-up and the evaluation.  psi is
    sampled only inside D(0, support_radius) and must vanish outside it.
    """

    def __init__(self, psi, support_radius: float = 2.0, resolution: int = 256):
        if support_radius <= 0:
            raise ValueError("support_radius must be positive")
        if resolution < 8:
            raise ValueError(f"resolution must be >= 8 (every cap up to {FIRST_RINGS} "
                             f"builds {FIRST_RINGS} rings), got {resolution}")
        self.psi = psi
        self.support_radius = R = float(support_radius)
        self.resolution = int(resolution)
        # pieces end at the seams of cutoff_g, so psi is smooth on each
        self._knots = np.array(sorted({0.0, min(1.0, R), min(2.0, R), R}))
        first, *finer = _ring_levels(self.resolution)
        piece_rule = _piece_rule(self._knots, first)
        self.n_theta, spectrum = _angular_spectrum(psi, piece_rule[0])
        self._tabulate(piece_rule, self._keep(spectrum))
        self.rings, self.level_change = (first,), None
        for n in finer:
            piece_rule = _piece_rule(self._knots, n)
            rings = piece_rule[0]
            # the coarser level's rings are the even rings, bit for bit:
            # psi is sampled only at the odd ones, at the same angles
            _, values = next(angle_levels(psi, rings[:, 1::2], self.n_theta, self.n_theta))
            merged = np.empty(rings.shape + spectrum.shape[-1:], dtype=complex)
            merged[:, ::2], merged[:, 1::2] = spectrum, rfft(values, axis=-1) / self.n_theta
            spectrum = merged
            if _tail(spectrum) > MODE_TAIL:  # the new rings need more angles
                self.n_theta, spectrum = _angular_spectrum(psi, rings)
            was = self._columns
            coarse = self._modes_at(_every_ring_once(rings))
            table = self._tabulate(piece_rule, self._keep(spectrum))
            # the coarser level on this level's columns, 0 on a column it lacked
            aligned = np.zeros_like(table)
            aligned[:, np.isin(self._columns, was)] = coarse[:, np.isin(was, self._columns)]
            # |change of Phi| <= |change of Phi_0| + 2 sum over the other columns
            bound = np.abs(table - aligned) @ np.where(self._k == 0, 1.0, 2.0)
            scale = float(np.max(np.abs(table)))
            change = float(np.max(bound)) / scale if scale else 0.0
            self.rings, self.level_change = (self.rings[-1], n), change
            if change <= LEVEL_TOL:
                break

    def _keep(self, spectrum: np.ndarray) -> np.ndarray:
        """Keep modes 0..K of the level's spectrum, shape (pieces, rings,
        n_theta // 2 + 1), and its live columns (module docstring), both
        measured over every ring of the level.  Returns those columns, shape
        (pieces, rings, columns)."""
        mag = np.abs(spectrum)
        self.n_modes = _kept_modes(mag)
        # the real view's columns (column 2k + 1 is Im psi_k) whose peak over
        # the rings is above the tail limit; mode 0's real part always
        real = np.ascontiguousarray(spectrum[..., :self.n_modes]).view(float)
        live = np.abs(real).max(axis=(0, 1)) > MODE_TAIL * float(mag.max())
        live[0] = True
        self._columns = np.flatnonzero(live)
        self._k = self._columns // 2
        return np.ascontiguousarray(real[..., self._columns])

    def _tabulate(self, piece_rule: tuple, columns: np.ndarray) -> np.ndarray:
        """Tabulate Phi_k on the n rings per piece of ``piece_rule``
        (:func:`_piece_rule`) from the live columns of psi_k there, shape
        (pieces, n, columns), and make that level the one this potential
        evaluates.  Returns the table with every ring once, ascending (the
        seams shared), shape (rings, columns)."""
        k = self._k
        rings = piece_rule[0]
        P, n = rings.shape
        inner, outer = _gap_integrals(columns, k, *piece_rule)
        r = _every_ring_once(rings)
        below, above = _ring_sums(r, k, inner, outer)
        table = np.empty_like(below)
        log_r = np.log(np.where(r > 0.0, r, 1.0))  # r = 0 meets zero mass only
        table[:, 0] = log_r * below[:, 0] + above[:, 0]
        table[:, 1:] = -(below[:, 1:] + above[:, 1:]) / (2.0 * k[1:])
        step = n - 1
        self._table = np.stack([table[i * step:i * step + n] for i in range(P)])
        self._rings = rings
        # barycentric weights of n Chebyshev-Lobatto points (Berrut and Trefethen)
        self._weights = (-1.0) ** np.arange(n)
        self._weights[[0, -1]] *= 0.5
        self._moments = below[-1]  # int_0^R s psi_k (s / R)^k ds, per column
        self.mass = _TWO_PI * float(self._moments[0])
        return table

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
        n = len(self._weights)
        rows = max(1, min(len(r), _BLOCK_ENTRIES // n))
        c = np.empty((rows, n))
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


def _ring_levels(resolution: int) -> list:
    """The ring counts per piece of the ladder, coarsest first: 2^k + 1 from
    FIRST_RINGS, doubling the gaps up to the smallest count of at least
    ``resolution`` (FIRST_RINGS alone for a cap of FIRST_RINGS or less)."""
    levels = [FIRST_RINGS]
    while levels[-1] < resolution:
        levels.append(2 * levels[-1] - 1)
    return levels


def _every_ring_once(rings: np.ndarray) -> np.ndarray:
    """The rings of consecutive pieces, shape (pieces, n), ascending with
    each seam once."""
    return np.concatenate([rg[:-1] for rg in rings] + [rings[-1, -1:]])


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
