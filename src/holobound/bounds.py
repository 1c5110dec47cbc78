"""Pointwise-bound certificates for weighted holomorphic L2 spaces.

Three certificate kinds:

* ``constant_case``: for lap(phi) = c > 0 the kernel diagonal is exactly
  (c / 4pi) e^{phi(z)}, so the weighted product K(z,z) e^{-phi(z)} must be
  flat at c / 4pi; the certificate measures that flatness.

* ``local_lemma``: with 0 <= lap(phi) <= M, every f satisfies
  |f(0)|^2 <= C e^{phi(0)} * integral over D(0,1) of |f|^2 e^{-phi},
  where C = e^{(B + 1/4) M} / pi depends only on M.

* ``global``: |f(z)|^2 <= C e^{phi(z)} ||f||^2 for the same C and all z.
  Because the kernel diagonal is the smallest constant in the pointwise
  bound at each z, dominating K_N(z,z) e^{-phi(z)} by C certifies the bound
  for the whole function class at once; sampled functions remain as an
  independent oracle.

A certificate passes only when its margin exceeds three times the quadrature
error estimate, so a pass is never an artifact of discretization noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .kernel import build_kernel_estimate, weighted_norm_sq
from .potential import B_EXACT, check_laplacian_range, phi_at_origin
from .quadrature import QuadratureRule, disk_rule, half_resolution, integrate
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


class NonConstantLaplacianError(ValueError):
    """The constant-Laplacian certificate was asked for a nonconstant weight."""


@dataclass(eq=False)
class BoundCertificate:
    """Outcome of one certificate run.

    ``measured`` holds the measured quantity at each point of ``grid``; the
    record derives ``measured_sup``, its maximum, and ``margin``,
    constant_C - measured_sup.  ``passed`` is the margin beyond three error
    estimates unless the certificate supplies its own rule (flatness, for
    the constant case).  ``metadata`` carries N, resolution, B_used, M and
    auxiliary diagnostics.
    """

    constant_C: float
    grid: np.ndarray
    measured: np.ndarray
    error_estimate: float
    passed: bool | None = None
    metadata: dict = dataclass_field(default_factory=dict)
    measured_sup: float = dataclass_field(init=False)
    margin: float = dataclass_field(init=False)

    def __post_init__(self):
        self.measured_sup = float(np.max(self.measured))
        self.margin = self.constant_C - self.measured_sup
        if self.passed is None:
            self.passed = bool(self.margin > ERROR_MARGIN_FACTOR * self.error_estimate)


def certificate_constant(M: float) -> float:
    """The M-only certificate constant exp((B + 1/4) M) / pi."""
    return math.exp((B_EXACT + 0.25) * M) / math.pi


def _weighted_diag(w: WeightFunction, N: int, rule: QuadratureRule, grid: np.ndarray):
    """(estimate, K_N(z,z) e^{-phi(z)} on the grid, the largest change of that
    product when the rule is halved in resolution)."""
    density = w.density(grid)
    est = build_kernel_estimate(w, N, rule)
    products = np.atleast_1d(est.diag(grid)) * density
    coarse = build_kernel_estimate(w, N, half_resolution(rule))
    products_coarse = np.atleast_1d(coarse.diag(grid)) * density
    return est, products, float(np.max(np.abs(products - products_coarse)))


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
    est, products, err = _weighted_diag(w, N, rule, grid)
    # |p / C - 1| is convex in p, so its grid maximum sits at the max or the min
    flat_dev = float(np.max(np.abs(products / C - 1.0)))
    return BoundCertificate(C, grid, products, err, passed=flat_dev <= FLATNESS_TOL, metadata={
        "c": c,
        "N": N,
        "effective_degree": est.effective_degree,
        "measured_inf": float(products.min()),
        "flatness_deviation": flat_dev,
        "flatness_tol": FLATNESS_TOL,
    })


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


def local_bound_certificate(w: WeightFunction, M: float, samples,
                            resolution: int) -> BoundCertificate:
    """Certificate for the unit-disk bound with C = e^{(B + 1/4) M} / pi.

    For each sample f the measured quantity is
    |f(0)|^2 e^{-phi(0)} / integral over D(0,1) of |f|^2 e^{-phi}; the
    certificate passes when the worst sample stays below C by more than
    three error estimates.  Samples with vanishing disk integral are
    skipped with a note.  A weight outside 0 <= lap(phi) <= M is rejected
    with the offending point.
    """
    check_laplacian_range(w, M)
    rule = disk_rule(0.0, 1.0, resolution, 2 * resolution)
    coarse = half_resolution(rule)
    phi0 = w.weight(0.0 + 0.0j)

    ratios, ratios_coarse, skipped = [], [], []
    for k, f in enumerate(samples):
        den = weighted_norm_sq(w, f, rule)
        if den <= 0.0:
            skipped.append(k)
            continue
        num = abs(complex(np.asarray(f(np.asarray(0.0 + 0.0j))))) ** 2 * math.exp(-phi0)
        ratios.append(num / den)
        ratios_coarse.append(num / weighted_norm_sq(w, f, coarse))
    if not ratios:
        raise ValueError("all samples were skipped (zero disk integrals)")
    ratios = np.asarray(ratios)
    err = float(np.max(np.abs(ratios - np.asarray(ratios_coarse))))
    return BoundCertificate(certificate_constant(M), np.asarray([0.0 + 0.0j]),
                            np.asarray([ratios.max()]), err, metadata={
        "B_used": B_EXACT,
        "M": M,
        "resolution": resolution,
        "n_samples": len(ratios),
        "skipped_samples": skipped,
    })


def global_certificate(w: WeightFunction, M: float, grid, N: int,
                       rule: QuadratureRule) -> BoundCertificate:
    """Certificate for the plane-wide bound with C = e^{(B + 1/4) M} / pi.

    measured_sup is the grid maximum of K_N(z,z) e^{-phi(z)}.  Since the
    kernel diagonal is the smallest constant making the pointwise bound hold
    at z, dominating it by C certifies the bound for every function in the
    space at once.  The metadata also reports the tighter weight-dependent
    constant e^{B M - Phi(0)} / pi that precedes the M-only simplification.
    Phi(0) comes from the circle means of psi alone (``phi_at_origin``),
    whose angle count is the tail rule ``greens.angular_modes`` that
    ``LogPotential`` uses too; no whole potential is built.
    """
    # validates 0 <= lap(phi) <= M before any Gram matrix is built
    phi0 = phi_at_origin(w, M)
    grid = np.asarray(grid, dtype=complex)
    est, products, err = _weighted_diag(w, N, rule, grid)
    return BoundCertificate(certificate_constant(M), grid, products, err, metadata={
        "B_used": B_EXACT,
        "M": M,
        "N": N,
        "effective_degree": est.effective_degree,
        "degraded": est.degraded,
        "resolution": rule.n_r,
        "condition_estimate": est.condition_estimate,
        "tighter_constant": math.exp(B_EXACT * M - phi0) / math.pi,
        "angle_bands": est.angle_bands(),
    })
