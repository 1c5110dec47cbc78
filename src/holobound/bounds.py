"""Pointwise-bound certificates for weighted holomorphic L2 spaces.

Every certificate measures K_N(z,z) e^{-phi(z)} with the one builder
``_weighted_diag``: a kernel estimate on a rule, and as the error estimate
eps / (1 - eps) times the measured maximum, eps the estimate's level
change from its coarser ring level, which bounds the product's change
between the levels at every z (``kernel``'s module docstring).  K_N(z,z)
is the largest |f(z)|^2 / ||f||^2 over polynomials f of degree <= N, so
dominating it bounds all of them at once.
The three kinds:

* ``constant_case``: for lap(phi) = c > 0 the kernel diagonal is exactly
  (c / 4pi) e^{phi(z)}, so the product must be flat at c / 4pi on the grid.

* ``local_lemma``: with 0 <= lap(phi) <= M, every f satisfies
  |f(0)|^2 <= C e^{phi(0)} * integral over D(0,1) of |f|^2 e^{-phi},
  C = e^{(B + 1/4) M} / pi; the product is taken for the space over D(0, 1).

* ``global``: |f(z)|^2 <= C e^{phi(z)} ||f||^2 for the same C and all z.

The local and global certificates read M from the weight's
``laplacian_bounds``.  A certificate passes only when its margin exceeds
three times the quadrature error estimate, so a pass is never an artifact
of discretization noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelEstimate, build_kernel_estimate
from .potential import B_EXACT, check_laplacian_range, phi_at_origin
from .quadrature import QuadratureRule, disk_rule, integrate
from .weights import Check, ValidationReport, WeightFunction

__all__ = [
    "BoundCertificate",
    "NonConstantLaplacianError",
    "certificate_constant",
    "constant_case_certificate",
    "mean_value_check",
    "local_bound_certificate",
    "global_certificate",
]

FLATNESS_TOL = 1e-3
ERROR_MARGIN_FACTOR = 3.0
# the largest M whose constant e^{(B + 1/4) M} / pi is a finite double
MAX_M = math.log(sys.float_info.max) / (B_EXACT + 0.25)


class NonConstantLaplacianError(ValueError):
    """The constant-Laplacian certificate was asked for a nonconstant weight."""


@dataclass(eq=False)
class BoundCertificate:
    """Outcome of one certificate run.

    ``measured`` holds K_N(z,z) e^{-phi(z)} at each measured point, from
    ``estimate``, the kernel estimate built, and ``convergence_gap`` the
    estimate's (K_N - K_{N-5}) / K_N there (None below the degree step);
    the record derives ``measured_sup``, its maximum, and ``margin``,
    constant_C - measured_sup.  ``passed`` is the margin beyond three error
    estimates unless the certificate supplies its own rule (flatness, for
    the constant case).  ``tighter_constant`` is set by the global
    certificate only.
    """

    constant_C: float
    measured: np.ndarray
    error_estimate: float
    estimate: KernelEstimate
    convergence_gap: np.ndarray | None = None
    passed: bool | None = None
    tighter_constant: float | None = None
    measured_sup: float = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        self.measured_sup = float(np.max(self.measured))
        self.margin = self.constant_C - self.measured_sup
        if self.passed is None:
            self.passed = bool(self.margin > ERROR_MARGIN_FACTOR * self.error_estimate)


def certificate_constant(M: float) -> float:
    """The M-only certificate constant exp((B + 1/4) M) / pi; OverflowError,
    naming M, past MAX_M."""
    if M > MAX_M:
        raise OverflowError(f"certificate constant e^((B + 1/4) M) / pi overflows at M = {M}; "
                            f"a double allows M <= {MAX_M}")
    return math.exp((B_EXACT + 0.25) * M) / math.pi


def _weighted_diag(w: WeightFunction, N: int, rule: QuadratureRule, grid: np.ndarray):
    """(K_N(z,z) e^{-phi(z)} on the grid, the error estimate eps / (1 - eps)
    times its maximum, the estimate, its convergence gap on the grid or
    None): a certificate's fields after constant_C.  ``build_kernel_estimate``
    raises at eps >= 1, so the ratio is finite and nonnegative here."""
    est = build_kernel_estimate(w, N, rule)
    eps = est.level_change
    diag, gap = est.diag_and_gap(grid)
    products = np.atleast_1d(diag) * w.density(grid)
    err = eps / (1.0 - eps) * float(np.max(products))
    return products, err, est, None if gap is None else np.atleast_1d(gap)


def constant_case_certificate(w: WeightFunction, grid, N: int,
                              rule: QuadratureRule) -> BoundCertificate:
    """Certificate for weights with constant lap(phi) = c > 0.

    constant_C is exactly c / (4 pi); the weighted kernel diagonal must sit
    at that value uniformly over the grid, and the certificate passes when
    its measured max and min (flatness) stay within 1e-3 of it.
    """
    grid = np.asarray(grid, dtype=complex)
    lap = np.atleast_1d(np.asarray(w.laplacian(grid)))
    c = float(lap[0])
    if float(np.max(np.abs(lap - c))) > 1e-9 * (1.0 + abs(c)):
        raise NonConstantLaplacianError(
            f"lap(phi) varies over the grid (spread {np.max(lap) - np.min(lap):.3e}); "
            f"the constant-case certificate requires a constant Laplacian")
    if c <= 0:
        raise NonConstantLaplacianError(f"lap(phi) must be positive, got {c}")
    C = c / (4.0 * math.pi)
    measured = _weighted_diag(w, N, rule, grid)
    # |p / C - 1| is convex in p, so its grid maximum sits at the max or the min
    flat_dev = float(np.max(np.abs(measured[0] / C - 1.0)))
    return BoundCertificate(C, *measured, passed=flat_dev <= FLATNESS_TOL)


def mean_value_check(h, s: float, tol: float = 1e-10) -> ValidationReport:
    """Check h(0) equals the area average of h over D(0, s), 0 < s < 1.

    ``h`` may be any holomorphic callable (``np.exp``, say); the average is
    taken with a 64 x 128 polar rule on D(0, s).
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    mean = integrate(disk_rule(0.0, s, 64, 128), h) / (math.pi * s * s)
    center = complex(np.asarray(h(np.asarray(0.0 + 0.0j))))
    dev = abs(mean - center)
    return ValidationReport((
        Check("mean_value_deviation", dev, tol, dev <= tol,
              note=f"s = {s}, mean = {mean!r}, h(0) = {center!r}"),
    ))


def local_bound_certificate(w: WeightFunction, N: int, resolution: int) -> BoundCertificate:
    """Certificate for the unit-disk bound with C = e^{(B + 1/4) M} / pi.

    The measured quantity is K_N(0,0) e^{-phi(0)} for the space over
    D(0, 1), on a resolution x 2 resolution disk rule: the largest
    |f(0)|^2 e^{-phi(0)} / integral over D(0,1) of |f|^2 e^{-phi} over
    polynomials f of degree at most N, the local lemma's sharp constant
    for all of them at once.  A weight outside 0 <= lap(phi) <= M is
    rejected with the offending point before any Gram is built.
    """
    check_laplacian_range(w)
    C = certificate_constant(w.laplacian_bounds[1])
    return BoundCertificate(C, *_weighted_diag(
        w, N, disk_rule(0.0, 1.0, resolution, 2 * resolution), np.zeros(1, complex)))


def global_certificate(w: WeightFunction, grid, N: int,
                       rule: QuadratureRule) -> BoundCertificate:
    """Certificate for the plane-wide bound with C = e^{(B + 1/4) M} / pi.

    measured_sup is the grid maximum of K_N(z,z) e^{-phi(z)}.  Since the
    kernel diagonal is the smallest constant making the pointwise bound hold
    at z, dominating it by C certifies the bound for every function in the
    space at once.  ``tighter_constant`` is the weight-dependent constant
    e^{B M - Phi(0)} / pi that precedes the M-only simplification.
    Phi(0) comes from the circle means of psi alone (``phi_at_origin``),
    whose angle count is the tail rule ``greens.angular_modes`` that
    ``LogPotential`` uses too; no whole potential is built.
    """
    # 0 <= lap(phi) <= M, and C's double range, are checked before any Gram is built
    phi0 = phi_at_origin(w)
    M = w.laplacian_bounds[1]
    C = certificate_constant(M)
    return BoundCertificate(C, *_weighted_diag(w, N, rule, np.asarray(grid, dtype=complex)),
                            tighter_constant=math.exp(B_EXACT * M - phi0) / math.pi)
