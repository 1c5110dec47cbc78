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

from .kernel import SampleFunction
from .quadrature import sunflower_points
from .weights import Check, ValidationReport, WeightFunction

__all__ = [
    "EquivalenceMap",
    "EquivalenceError",
    "log_laplacian_equal",
    "build_equivalence_map",
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
