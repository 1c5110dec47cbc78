"""Potential-theory pipeline for the local kernel bound.

From a weight phi with 0 <= lap(phi) <= M on the plane, M the upper end of
its ``laplacian_bounds``, this module builds the cutoff density
psi = g * lap(phi) (equal to lap(phi) on the closed unit disk, zero
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

import functools
import math

import numpy as np

from .greens import LogPotential, angular_modes, cutoff_g
from .quadrature import clenshaw_curtis, integrate_with_error, masked_disk_rule
from .weights import (
    Check,
    ScalarField,
    ValidationReport,
    WeightFunction,
    stencil_laplacian,
    stencil_points,
)

__all__ = [
    "check_laplacian_range",
    "make_psi",
    "phi_at_origin",
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

FD_STEP = 1e-2        # stencil step of the Poisson check
POISSON_TOL = 5e-3    # Poisson residual allowed per unit of 1 + M
ORIGIN_INTERVALS = 128  # Clenshaw-Curtis intervals per radial piece of phi_at_origin


def check_laplacian_range(w: WeightFunction) -> None:
    """Raise ValueError, naming a point where lap(phi) < 0, unless the weight
    is in the class 0 <= lap(phi) <= M.  Its ``laplacian_bounds`` (m, M)
    contain the exact plane-wide range, so only m < 0 fails, and a negative
    m is the family's own, attained at ``laplacian_min_at``."""
    m, M = w.laplacian_bounds
    if m < 0:
        raise ValueError(f"weight violates 0 <= lap(phi) <= {M} at "
                         f"z = {w.laplacian_min_at!r} (lap(phi) = {m})")


def _cutoff_density(w: WeightFunction) -> ScalarField:
    """psi = g * lap(phi): lap(phi) on the closed unit disk, zero for |z| >= 2."""
    return ScalarField(lambda z: cutoff_g(z) * np.asarray(w.laplacian(z)))


def make_psi(w: WeightFunction, resolution: int = 256) -> LogPotential:
    """Build psi = g * lap(phi) after validating 0 <= lap(phi) <= M.

    Returns the potential Phi = Gamma * psi: calling it evaluates Phi, and
    its ``psi`` is the cutoff density, exactly zero for |z| >= 2 and equal
    to lap(phi) on the closed unit disk.  A weight outside the range is
    rejected by :func:`check_laplacian_range`.
    """
    check_laplacian_range(w)
    return LogPotential(_cutoff_density(w), support_radius=2.0, resolution=resolution)


@functools.lru_cache(maxsize=16)
def phi_at_origin(w: WeightFunction) -> float:
    """Phi(0) for the psi of :func:`make_psi`, without building the whole field.

    The weight is validated as in :func:`make_psi`.  Only the circle means
    psi_0 of psi enter (Jensen's formula):

        Phi(0) = integral from 0 to 2 of s psi_0(s) log s ds.

    psi_0 is the ring mean over the angles of the shared tail rule
    :func:`holobound.greens.angular_modes`; that mean is exact but for the
    modes that are multiples of the angle count, which the rule puts below
    its limit.  On each piece [a, b] of [0, 1] and [1, 2], split at the seam
    of the cutoff, s = a + (b - a) u^2, so that ds = 2 (b - a) u du and
    s log s ds becomes 4 u^3 log u du near s = 0; the integral of u f(u) is
    taken by ``clenshaw_curtis(ORIGIN_INTERVALS)``, whose node u = 0, of
    weight zero, is dropped, so log s never sees s = 0 (the log-potential's
    gap rule makes the same substitution).  For ``gaussian``,
    ``oscillatory(1, 0.5)`` and ``potential_defined(1)`` the sum is within
    1e-15 of the one with 512 Gauss-Legendre nodes per piece.

    Cached per weight: Phi(0) depends on the weight only through lap(phi),
    and weights compare equal by family, parameters and Laplacian bounds,
    which fix their evaluators and their class, so a sweep over one weight
    computes it once.  A weight outside the class raises on every call,
    since errors are not cached.
    """
    check_laplacian_range(w)
    u, uw = clenshaw_curtis(ORIGIN_INTERVALS)
    knots = np.array([0.0, 1.0, 2.0])
    a, h = knots[:-1, None], np.diff(knots)[:, None]
    s = a + h * u * u
    _, modes = angular_modes(_cutoff_density(w), s)
    ds = 2.0 * h * uw  # ds = 2 h u du, and uw carries the u
    return float(np.sum(ds * s * np.log(s) * modes[..., 0].real))


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


def verify_potential_bounds(potential: LogPotential, M: float, grid_in_unit_disk,
                            tol: float) -> tuple:
    """Check the three potential bounds on a grid inside the unit disk.

    * Phi(omega) <= B * M + tol on the grid;
    * Phi(0) >= -M/4 - tol;
    * lap(Phi) = psi within 5e-3 * (1 + M) at the grid points, via the
      finite-difference oracle.

    Returns the report, whose failures are reported, never raised, and Phi
    on the grid.  Phi is evaluated once, on the grid's five-point stencils
    and the origin together.
    """
    grid = np.asarray(grid_in_unit_disk, dtype=complex)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.abs(grid) >= 1.0):
        raise ValueError("grid points must lie inside D(0, 1)")
    fd_tol = POISSON_TOL * (1.0 + M)
    upper = B_EXACT * M + tol

    values = potential(np.append(stencil_points(grid, FD_STEP), 0.0))
    phi_grid = values[:grid.size].reshape(grid.shape)
    phi0 = values[-1]
    fd = stencil_laplacian(values[:-1], FD_STEP).reshape(grid.shape)
    resid = float(np.max(np.abs(fd - potential.psi(grid))))

    sup_phi = float(np.max(phi_grid))
    checks = (
        Check("phi_upper", sup_phi, upper, sup_phi <= upper,
              note=f"worst point {grid.flat[np.argmax(phi_grid)]!r}"),
        Check("phi_at_origin", float(phi0), -M / 4.0 - tol,
              phi0 >= -M / 4.0 - tol),
        Check("poisson_residual", resid, fd_tol, resid <= fd_tol),
    )
    return ValidationReport(checks), phi_grid
