"""Holomorphic equivalence of weighted spaces.

Two strictly positive densities alpha and beta on the plane admit a
nowhere-zero holomorphic multiplier phi_eq with |phi_eq|^2 * beta = alpha
exactly when log(alpha/beta) is harmonic; the multiplier induces a unitary
map f -> phi_eq * f between the spaces and leaves the weighted kernel
diagonal alpha(z) K_alpha(z, z) invariant.  Each density is given by its
weight, alpha = exp(-phi) (``WeightFunction.density``), so log alpha = -phi
is exact.

The constructive branch covers the quadratic weights, whose exponents
carry their coefficients (a, b, c, d) in phi = a|z|^2 + Re(b z^2 + c z) + d.
Translating by z0 keeps a and b and gives c' = c + 2 b z0 + 2 a conj(z0),
d' = d + a|z0|^2 + Re(b z0^2 + c z0).  Two such weights are equivalent
exactly when their a agree; then phi_eq = exp(p/2) for the complex
quadratic p = (d_b - d_a) + (c_b - c_a) z + (b_b - b_a) z^2.  Anything else
is detected and rejected rather than silently approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import SampleFunction, build_kernel_estimate, weighted_norm_sq
from .quadrature import QuadratureRule, sunflower_points
from .weights import Check, ValidationReport, WeightFunction, normalized_gaussian

__all__ = [
    "EquivalenceMap",
    "EquivalenceError",
    "log_laplacian_equal",
    "build_equivalence_map",
    "verify_unitary",
    "verify_kernel_invariance",
    "matching_normalized_gaussian",
]


class EquivalenceError(ValueError):
    """The requested equivalence is unsupported or does not exist."""


@dataclass(frozen=True, eq=False)
class EquivalenceMap:
    """Nowhere-zero holomorphic multiplier phi_eq = exp(p(z)/2).

    |phi_eq|^2 * beta = alpha for the source density alpha and target beta.
    """

    exponent_coefficients: tuple
    source: WeightFunction
    target: WeightFunction

    def exponent(self, z):
        """p(z), the polynomial whose real part is phi_target - phi_source."""
        return SampleFunction(self.exponent_coefficients)(z)

    def __call__(self, z):
        return np.exp(np.asarray(self.exponent(z)) / 2.0)


def log_laplacian_equal(a: WeightFunction, b: WeightFunction, grid,
                        tol: float) -> ValidationReport:
    """Criterion report: lap(log alpha) = lap(log beta) on the grid within tol,
    for the densities alpha = exp(-phi_a) and beta = exp(-phi_b); since
    log alpha = -phi_a exactly, that compares the weight Laplacians.

    Truthy iff the criterion holds, in which case the two spaces are
    holomorphically equivalent.
    """
    grid = np.asarray(grid, dtype=complex)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    dev = np.abs(np.asarray(a.laplacian(grid)) - np.asarray(b.laplacian(grid)))
    worst = int(np.argmax(dev))
    checks = (
        Check("log_laplacian_deviation", float(dev[worst]), tol,
              float(dev[worst]) <= tol, note=f"worst point {grid[worst]!r}"),
    )
    return ValidationReport(checks)


def build_equivalence_map(a: WeightFunction, b: WeightFunction) -> EquivalenceMap:
    """Construct phi_eq = exp(p/2) with |phi_eq|^2 = alpha/beta.

    Requires two quadratic weights with equal |z|^2 coefficients, so that
    phi_b - phi_a is harmonic; other inputs raise :class:`EquivalenceError`.
    p keeps no trailing zero coefficient, and the construction is verified
    on a 100-point grid in D(0, 3) before returning.
    """
    if a.quadratic is None or b.quadratic is None:
        raise EquivalenceError(
            "constructive equivalence needs both weight exponents quadratic "
            "polynomials; transcendental families are not supported")
    diff = [qb - qa for qa, qb in zip(a.quadratic, b.quadratic)]
    scale = max(1.0, *map(abs, diff))
    if abs(4.0 * diff[0]) > 1e-10 * scale:
        raise EquivalenceError(
            f"phi_b - phi_a is not harmonic: its Laplacian is {4.0 * diff[0]}")
    p = [complex(diff[3]), diff[2], diff[1]]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    emap = EquivalenceMap(tuple(p), source=a, target=b)

    grid = sunflower_points(100, 3.0)
    ratio = np.abs(emap(grid)) ** 2 * b.density(grid) / a.density(grid)
    worst = float(np.max(np.abs(ratio - 1.0)))
    if worst > 1e-10:
        raise EquivalenceError(
            f"constructed multiplier fails |phi_eq|^2 * beta = alpha "
            f"(worst relative deviation {worst:.3e})")
    return emap


def verify_unitary(m: EquivalenceMap, samples, rule: QuadratureRule,
                   tol: float) -> ValidationReport:
    """Check ||phi_eq * f||^2 under beta equals ||f||^2 under alpha.

    Both norms are computed by quadrature on the same rule; the relative
    deviation must stay within tol for every sample.
    """
    checks = []
    for k, f in enumerate(samples):
        lhs = weighted_norm_sq(m.target, lambda z: np.asarray(m(z)) * np.asarray(f(z)), rule)
        rhs = weighted_norm_sq(m.source, f, rule)
        if rhs <= 0.0:
            raise ValueError(f"sample #{k} has zero norm under the source density")
        dev = abs(lhs / rhs - 1.0)
        checks.append(Check(f"norm_ratio_{k}", dev, tol, dev <= tol))
    return ValidationReport(tuple(checks))


def verify_kernel_invariance(a: WeightFunction, b: WeightFunction, z_list,
                             N: int, rule: QuadratureRule,
                             tol: float) -> ValidationReport:
    """Check alpha(z) K_alpha(z, z) = beta(z) K_beta(z, z) at the given points.

    Both diagonals are computed at convergence in the truncation degree N
    (the multiplier shuffles polynomial degrees, so finite-N truncations
    only agree once both sides have converged); the report notes the
    effective degrees actually used.
    """
    z = np.asarray(z_list, dtype=complex)
    est_a = build_kernel_estimate(a, N, rule)
    est_b = build_kernel_estimate(b, N, rule)
    lhs = np.atleast_1d(est_a.diag(z)) * np.atleast_1d(a.density(z))
    rhs = np.atleast_1d(est_b.diag(z)) * np.atleast_1d(b.density(z))
    rel = np.abs(lhs - rhs) / np.abs(lhs)
    gap = max(float(np.max(est_a.convergence_gap(z))),
              float(np.max(est_b.convergence_gap(z))))
    note = (f"effective degrees {est_a.effective_degree} / "
            f"{est_b.effective_degree}, worst convergence gap {gap:.2e}")
    checks = tuple(
        Check(f"weighted_diag_{i}", float(rel[i]), tol, float(rel[i]) <= tol,
              note=note)
        for i in range(len(z))
    )
    return ValidationReport(checks)


def matching_normalized_gaussian(c: float) -> WeightFunction:
    """The normalized Gaussian density holomorphically equivalent to any
    density exp(-phi) with constant lap(phi) = c > 0: parameter t = 4/c."""
    if c <= 0:
        raise EquivalenceError(f"constant Laplacian must be positive, got {c}")
    return normalized_gaussian(4.0 / c)
