"""Potential-theory pipeline for the local kernel bound.

From a weight phi with 0 <= lap(phi) <= M this module builds the cutoff
density psi = g * lap(phi) (equal to lap(phi) on the closed unit disk, zero
outside D(0, 2), valued in [0, M]), the potential Phi = Gamma * psi solving
lap(Phi) = psi, and the geometric constant

    B = (1/2pi) sup_{|omega| <= 1} integral over D(omega, 2) \\ D(0, 1)
        of log|zeta| d zeta,

which controls Phi from above: Phi <= B*M on the unit disk, while
Phi(0) >= -M/4.  Both bounds feed the certificate constant
exp((B + 1/4) M) / pi.

B has a closed form.  By the circle-mean identity (Jensen's formula), the
mean of log|zeta| over the circle |zeta - omega| = t is log max(|omega|, t).
For |omega| <= 1 the excluded unit disk lies inside D(omega, 2), so the
masked integral is

    2 pi (2 log 2 - 1) + pi |omega|^2 / 2 + pi / 2,

increasing in |omega| and maximal on the unit circle: B = 2 log 2 - 1/2.
Production code uses that value, ``B_EXACT``; ``compute_B`` is the
independent 2-D quadrature oracle the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .greens import LogPotential, cutoff_g, gamma
from .quadrature import integrate_with_error, masked_disk_rule, sunflower_points
from .weights import (
    Check,
    ScalarField,
    ValidationReport,
    WeightFunction,
    eval_laplacian,
    report_from_checks,
)

__all__ = [
    "gamma",
    "cutoff_g",
    "PotentialField",
    "make_psi",
    "B_EXACT",
    "compute_B",
    "B_BRACKET",
    "verify_potential_bounds",
]

# analytic envelope for B: the masked integrand log|zeta| lies in [0, log 3]
# and the masked region has area at most 4*pi
B_BRACKET = (0.0, 2.0 * math.log(3.0))

# the closed form of B (module docstring); the smallest sound value, since the
# certificate needs an upper bound for B
B_EXACT = 2.0 * math.log(2.0) - 0.5


@dataclass(eq=False)
class PotentialField:
    """The cutoff density psi = g * lap(phi) and its potential Phi = Gamma * psi.

    ``phi(z)`` evaluates the potential (vectorized); psi is exactly zero for
    |z| >= 2 and agrees with lap(phi) on the closed unit disk.
    """

    psi: ScalarField
    weight: WeightFunction
    M: float
    resolution: int = 256
    psi_radial: bool = False
    _potential: LogPotential = field(repr=False, default=None)

    def __post_init__(self):
        if self._potential is None:
            self._potential = LogPotential(self.psi, support_radius=2.0,
                                           resolution=self.resolution,
                                           radial=self.psi_radial)

    def phi(self, z):
        """Phi(z) = (Gamma * psi)(z)."""
        return self._potential(z)


def _psi_is_radial(w: WeightFunction) -> bool:
    """True when g * lap(phi) is a radial function of z.

    Constant Laplacians (possibly translated) and the untranslated built-in
    bump family qualify; anything else keeps the general 2-D evaluator.
    """
    if w.laplacian_bounds[0] == w.laplacian_bounds[1]:
        return True
    if w.family == "potential_defined" and w.offset == 0:
        return any(k == "psi_height" for k, _ in w.params)
    return False


def make_psi(w: WeightFunction, M: float, tol: float = 1e-9,
             resolution: int = 256) -> PotentialField:
    """Build psi = g * lap(phi) after validating 0 <= lap(phi) <= M.

    The validation grid covers the support D(0, 2) of the cutoff with some
    margin; a violating weight is rejected with the offending grid point.
    """
    grid = sunflower_points(400, 2.2)
    lap = np.asarray(eval_laplacian(w, grid))
    bad = (lap < -tol) | (lap > M + tol)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValueError(
            f"weight violates 0 <= lap(phi) <= {M} at z = {grid[idx]!r} "
            f"(lap(phi) = {lap[idx]})")
    psi = ScalarField(lambda z: cutoff_g(z) * np.asarray(eval_laplacian(w, z)),
                      support_radius=2.0)
    return PotentialField(psi=psi, weight=w, M=float(M), resolution=resolution,
                          psi_radial=_psi_is_radial(w))


def compute_B(resolution: int = 64, omega_grid_size: int = 24) -> float:
    """Upper estimate of the constant B by 2-D quadrature and grid maximization.

    The test oracle for ``B_EXACT``.  The integrand and the mask are
    invariant under rotation, so omega runs over ``omega_grid_size`` points
    of the real segment [0, 1], always including the maximizing boundary
    point omega = 1.  The result is the grid supremum plus the quadrature
    error estimate at the maximizing omega, checked against the analytic
    bracket [0, 2 log 3].
    """
    if omega_grid_size < 9:
        raise ValueError(f"omega_grid_size must be >= 9, got {omega_grid_size}")
    n_r, n_t = 4 * resolution, 8 * resolution
    integrand = lambda z: np.log(np.abs(z))
    value, err = max(
        integrate_with_error(masked_disk_rule(omega, 2.0, 0.0, 1.0, n_r, n_t), integrand)
        for omega in np.linspace(0.0, 1.0, omega_grid_size))
    B = value / (2.0 * math.pi) + err / (2.0 * math.pi)
    lo, hi = B_BRACKET
    if not (lo <= B <= hi):
        raise ArithmeticError(
            f"computed B = {B} escapes the analytic bracket [{lo}, {hi}]")
    return B


def verify_potential_bounds(pf: PotentialField, grid_in_unit_disk, tol: float,
                            fd_tol: Optional[float] = None,
                            fd_step: float = 1e-2) -> ValidationReport:
    """Check the three potential bounds on a grid inside the unit disk.

    * Phi(omega) <= B * M + tol on the grid;
    * Phi(0) >= -M/4 - tol;
    * lap(Phi) = psi within ``fd_tol`` (default 5e-3 * (1 + M)) at the grid
      points, via the finite-difference oracle.

    Failures are reported, never raised.
    """
    grid = np.asarray(grid_in_unit_disk, dtype=complex)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.abs(grid) >= 1.0):
        raise ValueError("grid points must lie inside D(0, 1)")
    if fd_tol is None:
        fd_tol = 5e-3 * (1.0 + pf.M)
    upper = B_EXACT * pf.M + tol

    phi_grid = pf.phi(grid)
    phi0 = pf.phi(np.array([0.0 + 0.0j]))[0]
    h = fd_step
    stencil = np.concatenate([grid, grid + h, grid - h, grid + 1j * h, grid - 1j * h])
    vals = pf.phi(stencil)
    n = len(grid)
    fd = (vals[n:2 * n] + vals[2 * n:3 * n] + vals[3 * n:4 * n]
          + vals[4 * n:5 * n] - 4.0 * vals[:n]) / (h * h)
    resid = float(np.max(np.abs(fd - pf.psi(grid))))

    sup_phi = float(np.max(phi_grid))
    checks = (
        Check("phi_upper", sup_phi, upper, sup_phi <= upper,
              note=f"worst point {grid[np.argmax(phi_grid)]!r}"),
        Check("phi_at_origin", float(phi0), -pf.M / 4.0 - tol,
              phi0 >= -pf.M / 4.0 - tol),
        Check("poisson_residual", resid, fd_tol, resid <= fd_tol),
    )
    return report_from_checks(checks)
