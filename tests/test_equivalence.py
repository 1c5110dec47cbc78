import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from holobound import (
    EquivalenceError,
    WeightError,
    WeightFunction,
    build_equivalence_map,
    log_laplacian_equal,
    normalized_gaussian,
    translate_weight,
    truncated_plane_rule,
    truncation_radius,
)
from holobound.quadrature import disk_lattice, sunflower_points
from oracles import verify_kernel_invariance, verify_unitary

GRID = sunflower_points(60, 2.0)


class TestLogLaplacianCriterion:
    def test_harmonic_difference_is_equivalent(self):
        a = WeightFunction.gaussian(1.0)
        b = WeightFunction.gaussian_harmonic(1.0, c=1.0)
        assert log_laplacian_equal(a, b, GRID, 1e-10)

    def test_normalization_constant_is_equivalent(self):
        # the normalized Gaussian differs from exp(-|z|^2/t) by a constant
        # factor, which is log-harmonic
        a = normalized_gaussian(2.0)
        b = WeightFunction.gaussian(2.0)
        assert log_laplacian_equal(a, b, GRID, 1e-12)

    def test_different_constants_are_not(self):
        a = WeightFunction.gaussian(1.0)   # lap = 4
        b = WeightFunction.gaussian(0.5)   # lap = 8
        report = log_laplacian_equal(a, b, GRID, 1e-6)
        assert not report
        assert report.checks[0].value == pytest.approx(4.0)


class TestBuildEquivalenceMap:
    def test_identity(self, gauss1):
        emap = build_equivalence_map(gauss1, gauss1)
        assert np.allclose(emap(GRID), 1.0)

    def test_exponential_multiplier(self, gauss1):
        # beta = exp(-|z|^2 - 2 Re z) = alpha / |e^z|^2
        b = WeightFunction.gaussian_harmonic(1.0, c=2.0)
        emap = build_equivalence_map(gauss1, b)
        assert np.allclose(emap.exponent_coefficients, [0.0, 2.0])
        zs = sunflower_points(100, 3.0)
        assert np.allclose(emap(zs), np.exp(zs), rtol=1e-12)
        ratio = np.abs(emap(zs)) ** 2 * b.density(zs) / gauss1.density(zs)
        assert np.max(np.abs(ratio - 1.0)) < 1e-10

    def test_constant_rescale(self, gauss1):
        # beta = s * alpha, represented via a constant shift of the exponent
        s = 0.375
        b = WeightFunction.gaussian_harmonic(1.0, d=-math.log(s))
        emap = build_equivalence_map(gauss1, b)
        assert complex(np.asarray(emap(0.7 + 0.2j))) == pytest.approx(
            1.0 / math.sqrt(s), rel=1e-14)

    def test_residual_stays_finite_where_the_densities_underflow(self):
        # exp(-phi) underflows to 0 once phi passes about 745, so the ratio form
        # |phi_eq|^2 beta / alpha - 1 reads nan there, or 1 where only beta has
        # underflowed; the log form keeps the rounding of phi, about eps |z|^2
        a = WeightFunction.gaussian_harmonic(1.0, 0.3, 0.5)
        emap = build_equivalence_map(a, WeightFunction.gaussian(1.0))
        zs = disk_lattice(1000.0, 7.3)
        assert a.density(zs).min() == 0.0
        residual = emap.residual(zs)
        assert np.all(np.isfinite(residual))
        assert residual.max() <= 1e-15 * np.abs(zs).max() ** 2

    def test_non_polynomial_rejected(self, gauss1):
        osc = WeightFunction.oscillatory(1.0, 0.5)
        with pytest.raises(EquivalenceError, match="polynomial"):
            build_equivalence_map(gauss1, osc)

    def test_non_harmonic_difference_rejected(self, gauss1):
        b = WeightFunction.gaussian(0.5)
        with pytest.raises(EquivalenceError, match="harmonic"):
            build_equivalence_map(gauss1, b)


OFFSET = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestTranslatedPairs:
    """A translated gaussian against a translated gaussian_harmonic: the
    coefficients of phi(z0 + .) feed p, so Re p = phi_b - phi_a checks the
    translation rule, the xy term (Im b) and the linear terms at once."""

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.2, 3.0), ratio=st.floats(0.0, 0.95),
           angle=st.floats(0.0, 2.0 * math.pi), c=OFFSET, d=st.floats(-2.0, 2.0),
           z1=OFFSET, z2=OFFSET)
    def test_real_part_is_the_weight_difference(self, a, ratio, angle, c, d, z1, z2):
        source = translate_weight(WeightFunction.gaussian(1.0 / a), z1)
        target = translate_weight(WeightFunction.gaussian_harmonic(
            a, b=ratio * a * complex(math.cos(angle), math.sin(angle)), c=c, d=d), z2)
        emap = build_equivalence_map(source, target)
        assert emap.exponent_coefficients[0].imag == 0.0  # p(0) is real
        zs = sunflower_points(100, 3.0)
        expected = target.weight(zs) - source.weight(zs)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(np.real(emap.exponent(zs)) - expected)) <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.2, 3.0), excess=st.floats(0.01, 1.0), c=OFFSET,
           z1=OFFSET, z2=OFFSET)
    def test_different_a_rejected(self, a, excess, c, z1, z2):
        source = translate_weight(WeightFunction.gaussian(1.0 / a), z1)
        target = translate_weight(
            WeightFunction.gaussian_harmonic(a * (1.0 + excess), c=c), z2)
        with pytest.raises(EquivalenceError, match="harmonic"):
            build_equivalence_map(source, target)


@pytest.fixture(scope="module")
def rule():
    return truncated_plane_rule(10.0, 256, 512)


@pytest.fixture(scope="module")
def exp_map(gauss1):
    b = WeightFunction.gaussian_harmonic(1.0, c=2.0)
    return build_equivalence_map(gauss1, b)


class TestVerifyUnitary:
    def test_identity_map_exact(self, gauss1, rule):
        emap = build_equivalence_map(gauss1, gauss1)
        samples = [Polynomial([1.0]), Polynomial.basis(3)]
        report = verify_unitary(emap, samples, rule, tol=1e-14)
        assert report.passed

    def test_exponential_map_constant_sample(self, exp_map, rule):
        report = verify_unitary(exp_map, [Polynomial([1.0])], rule, tol=1e-6)
        assert report.passed

    def test_exponential_map_cubic_sample(self, exp_map, rule):
        report = verify_unitary(exp_map, [Polynomial.basis(3)], rule, tol=1e-6)
        assert report.passed

    def test_zero_sample_rejected(self, exp_map, rule):
        with pytest.raises(ValueError):
            verify_unitary(exp_map, [Polynomial([0.0])], rule, 1e-6)

    def test_ten_random_samples_on_builtin_pairs(self, gauss1, rule):
        rng = np.random.default_rng(13)
        samples = []
        for _ in range(10):
            deg = int(rng.integers(0, 11))
            samples.append(Polynomial(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
        pairs = [
            WeightFunction.gaussian_harmonic(1.0, c=2.0),
            WeightFunction.gaussian_harmonic(1.0, b=0.2, d=0.3),
            normalized_gaussian(1.0),
        ]
        for target in pairs:
            emap = build_equivalence_map(gauss1, target)
            report = verify_unitary(emap, samples, rule, tol=1e-5)
            assert report.passed


class TestKernelInvariance:
    def test_identical_densities(self, gauss1, gauss1_rule):
        report = verify_kernel_invariance(gauss1, gauss1,
                                          [0.0, 1.0, 1.0j], 30, gauss1_rule, 1e-12)
        assert report.passed

    def test_constant_rescale_exact(self, gauss1, gauss1_rule):
        # doubling the density halves the kernel diagonal
        b = WeightFunction.gaussian_harmonic(1.0, d=-math.log(2.0))
        report = verify_kernel_invariance(gauss1, b,
                                          [0.0, 1.0, 1.0j], 30, gauss1_rule, 1e-10)
        assert report.passed

    def test_exponential_pair_at_convergence(self, gauss1):
        b = WeightFunction.gaussian_harmonic(1.0, c=2.0)
        radius = max(truncation_radius(gauss1, 40),
                     truncation_radius(b, 40))
        rule = truncated_plane_rule(radius, 256, 512)
        report = verify_kernel_invariance(gauss1, b,
                                          [0.0, 1.0, 1.0j], 40, rule, 1e-4)
        assert report.passed
        assert "effective degrees 40 / 40" in report.checks[0].note


class TestConstantLaplacianRealization:
    @pytest.mark.parametrize("c", [1.0, 4.0, 10.0])
    def test_matches_normalized_gaussian(self, c):
        # any weight with constant Laplacian c is equivalent to the
        # normalized Gaussian with t = 4/c
        w = WeightFunction.gaussian_harmonic(c / 4.0, b=0.1 * c / 4.0, c=0.2, d=0.1)
        target = normalized_gaussian(4.0 / c)
        assert target.laplacian(0.0) == pytest.approx(c)
        emap = build_equivalence_map(w, target)
        zs = sunflower_points(50, 2.0)
        ratio = (np.abs(emap(zs)) ** 2 * target.density(zs)
                 / w.density(zs))
        assert np.max(np.abs(ratio - 1.0)) < 1e-10

    def test_negative_control_rejected(self):
        a = WeightFunction.gaussian(1.0)   # lap = 4
        b = WeightFunction.gaussian(0.5)   # lap = 8
        assert not log_laplacian_equal(a, b, GRID, 1e-8)
        with pytest.raises(EquivalenceError):
            build_equivalence_map(a, b)

    def test_rejects_nonpositive_constant(self):
        # t = 4/c is positive exactly when c is: no normalized Gaussian has
        # a nonpositive Laplacian
        for c in (-1.0, -4.0):
            with pytest.raises(WeightError):
                normalized_gaussian(4.0 / c)
        with pytest.raises(WeightError):
            normalized_gaussian(0.0)
