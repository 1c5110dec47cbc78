"""Fundamental solution of the planar Laplacian and log-potential convolution.

The convolution engine evaluates Phi = Gamma * psi for a smooth density psi
supported in a disk D(0, R) around the origin.

Radial psi.  By the circle-mean identity (Jensen's formula), the mean of
log|z - zeta| over the circle |zeta| = s is log max(|z|, s), so

    Phi(r) = integral from 0 to R of s psi(s) log max(r, s) ds,   r = |z|.

The 1-D integral is split at the seams of ``cutoff_g`` (1 and 2, where they
lie inside [0, R]) and at r, so the integrand is smooth on every piece, and
each piece is integrated by Gauss-Legendre after the substitution s = t^2,
which weakens the s log s singularity at s = 0 (reached when r is 0 or
tiny) to t^3 log t.  For r >= R, Phi is exactly (mass / 2pi) log r.  The
nodes move smoothly with r, and the quadrature error is about 1e-13, far
below what a finite-difference stencil with step 1e-2 amplifies into a
visible residual.

General psi.  Two fixed 2-D rules are used:

  * near field (|z| <= NEAR_REACH): integrate Gamma(zeta) psi(z - zeta) over
    a fixed disk centered on the singularity, which the polar rule absorbs;
  * far field (|z| > NEAR_REACH): swap variables and integrate
    psi(eta) Gamma(z - eta) over the support disk, where the integrand is
    smooth because the singularity sits outside the support.

Keeping both node sets fixed (independent of z) makes the quadrature error a
smooth function of z, which matters when finite-difference stencils are
applied to Phi: a z-dependent window would turn tiny quadrature noise into
large stencil residuals.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import disk_rule, gauss_legendre

__all__ = ["gamma", "bump", "cutoff_g", "LogPotential"]

_TWO_PI = 2.0 * math.pi

# pair-entry budget per block when evaluating z-batches against node sets
_BLOCK_ENTRIES = 1 << 23

NEAR_REACH = 5.5      # |z| up to which the near-field rule is used
FAR_RESOLUTION = 64   # radial node count of the far-field rule


def gamma(z):
    """Fundamental solution (1/2pi) log|z| of the Laplacian on the plane.

    Rejects z = 0, where the solution is singular.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    if np.any(r == 0.0):
        raise ValueError("fundamental solution is singular at z = 0")
    out = np.log(r) / _TWO_PI
    return float(out) if out.ndim == 0 else out


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


class LogPotential:
    """Evaluator for Phi = Gamma * psi with psi supported in D(0, support_radius).

    With ``radial=True`` psi must be a function of |z| alone, and Phi comes
    from the 1-D rule with ``resolution`` Gauss-Legendre nodes per piece; no
    2-D rule is built.  Otherwise ``resolution`` is the radial node count of
    the near-field rule, whose angular count is twice that; the far-field
    rule over the support disk is cheap and very accurate because its
    integrand is smooth.
    """

    def __init__(self, psi, support_radius: float = 2.0, resolution: int = 256,
                 radial: bool = False):
        if support_radius <= 0:
            raise ValueError("support_radius must be positive")
        self.psi = psi
        self.support_radius = float(support_radius)
        self.resolution = int(resolution)
        self.radial = bool(radial)
        if self.radial:
            R = self.support_radius
            # pieces end at the seams of cutoff_g, so psi is smooth on each
            self._knots = np.unique(np.clip([0.0, 1.0, 2.0, R], 0.0, R))
            self._legendre = gauss_legendre(self.resolution)
            s, ws = self._radial_rule(self._knots[:-1], self._knots[1:])
            ws = ws * self._psi_on(s)
            self._piece_mass = ws.sum(axis=1)                 # int s psi ds
            self._piece_log = (ws * np.log(s)).sum(axis=1)    # int s psi log s ds
            self.mass = _TWO_PI * float(self._piece_mass.sum())
            return
        near = disk_rule(0.0, NEAR_REACH + self.support_radius,
                         self.resolution, 2 * self.resolution)
        self._near_nodes = near.nodes
        self._near_gw = near.weights * np.log(np.abs(near.nodes)) / _TWO_PI
        # radius-major node layout: ascending radii in blocks of n_theta,
        # so a radius prefix is a contiguous slice
        _, self._near_radii = near.rings()
        self._near_n_theta = near.n_theta
        far = disk_rule(0.0, self.support_radius, FAR_RESOLUTION, 2 * FAR_RESOLUTION)
        self._far_nodes = far.nodes
        self._far_pw = far.weights * np.asarray(psi(far.nodes), dtype=float)
        self.mass = float(np.sum(self._far_pw))

    def _psi_on(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.psi(s.astype(complex)), dtype=float)

    def _radial_rule(self, a: np.ndarray, b: np.ndarray):
        """Nodes s and weights for int_a^b s f(s) ds, one row per piece
        [a_i, b_i], by Gauss-Legendre in t = sqrt(s) (s ds = 2 t^3 dt)."""
        x, gw = self._legendre
        ta, tb = np.sqrt(a)[:, None], np.sqrt(b)[:, None]
        half = 0.5 * (tb - ta)
        t = ta + half * (x + 1.0)
        s = t * t
        return s, 2.0 * half * gw * t * s

    def _radial_values(self, r: np.ndarray) -> np.ndarray:
        # Phi(r) = int_0^R s psi(s) log max(r, s) ds; pieces wholly below r
        # contribute log r times their mass, pieces wholly above their log
        # moment, and the piece holding r is split there
        log_r = np.log(np.where(r > 0.0, r, 1.0))  # r = 0 meets zero mass only
        out = log_r * self._piece_mass.sum()       # exact for r >= R
        below = np.concatenate([[0.0], np.cumsum(self._piece_mass)])
        above = np.concatenate([np.cumsum(self._piece_log[::-1])[::-1], [0.0]])
        inside = np.flatnonzero(r < self.support_radius)
        block = max(1, _BLOCK_ENTRIES // (2 * self.resolution))
        for start in range(0, len(inside), block):
            idx = inside[start:start + block]
            rb = r[idx]
            k = np.searchsorted(self._knots, rb, side="right") - 1
            s_lo, w_lo = self._radial_rule(self._knots[k], rb)
            s_hi, w_hi = self._radial_rule(rb, self._knots[k + 1])
            lo = np.sum(w_lo * self._psi_on(s_lo), axis=1)
            hi = np.sum(w_hi * self._psi_on(s_hi) * np.log(s_hi), axis=1)
            out[idx] = log_r[idx] * (below[k] + lo) + above[k + 1] + hi
        return out

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
            out[start:start + block] = np.log(diff) @ self._far_pw / _TWO_PI
        return out

    def _values_inner(self, zs: np.ndarray) -> np.ndarray:
        out = np.empty(len(zs))
        near = np.abs(zs) <= NEAR_REACH
        if near.any():
            out[near] = self._near_values(zs[near])
        if (~near).any():
            out[~near] = self._far_values(zs[~near])
        return out

    def values(self, zs) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        if not self.radial:
            return self._values_inner(zs)
        # Phi depends on |z| alone: evaluate once per distinct radius
        radii, inverse = np.unique(np.abs(zs), return_inverse=True)
        return self._radial_values(radii)[inverse]

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0:
            return float(self.values(z.reshape(1))[0])
        return self.values(z)
