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
"""

from __future__ import annotations

import math

import numpy as np

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
        _, self._near_radii = near.rings()
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
