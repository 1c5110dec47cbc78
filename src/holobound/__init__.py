"""Reproducing kernels of weighted holomorphic L2 spaces on the plane.

The toolkit computes truncated kernel diagonals from monomial Gram matrices,
builds the potential-theory objects behind the pointwise bounds (smooth
cutoffs, fundamental-solution convolutions, the geometric constant B),
constructs holomorphic equivalences between weight densities, and certifies
the pointwise bounds

    |f(z)|^2 <= (c / 4pi) e^{phi(z)} ||f||^2         (lap(phi) = c constant)
    |f(z)|^2 <= e^{(B + 1/4) M} / pi * e^{phi(z)} ||f||^2
                                                     (0 <= lap(phi) <= M)

against independently computed kernel data.
"""

from .bounds import (
    BoundCertificate,
    NonConstantLaplacianError,
    certificate_constant,
    constant_case_certificate,
    global_certificate,
    local_bound_certificate,
    mean_value_check,
)
from .equivalence import (
    EquivalenceError,
    EquivalenceMap,
    build_equivalence_map,
    log_laplacian_equal,
)
from .kernel import (
    KernelEstimate,
    PositiveDefinitenessError,
    build_kernel_estimate,
    gram_matrix,
)
from .greens import cutoff_g
from .potential import (
    B_BRACKET,
    B_EXACT,
    compute_B,
    make_psi,
    phi_at_origin,
    verify_potential_bounds,
)
from .quadrature import (
    NonFiniteIntegrandError,
    QuadratureRule,
    disk_lattice,
    disk_rule,
    integrate,
    integrate_with_error,
    masked_disk_rule,
    random_disk_points,
    sunflower_points,
    truncated_plane_rule,
)
from .weights import (
    ScalarField,
    ValidationReport,
    WeightError,
    WeightFunction,
    fd_laplacian,
    normalized_gaussian,
    translate_weight,
    truncation_radius,
)

__version__ = "0.1.0"
