import math

import numpy as np
import pytest

from holobound import (
    B_EXACT,
    NonConstantLaplacianError,
    SampleFunction,
    WeightFunction,
    build_kernel_estimate,
    certificate_constant,
    constant_case_certificate,
    global_certificate,
    local_bound_certificate,
    mean_value_check,
    translate_weight,
    translated_pointwise_check,
    truncated_plane_rule,
    truncation_radius,
)
from holobound import bounds, greens
from holobound.bounds import BoundCertificate
from holobound.quadrature import disk_lattice, disk_rule, random_disk_points

INV_PI = 1.0 / math.pi


@pytest.fixture(scope="module")
def grid_d15():
    return disk_lattice(1.5, 0.25)


class TestBoundCertificate:
    def test_verdict_follows_from_measured_and_error(self):
        cert = BoundCertificate(2.0, np.zeros(3, complex), np.array([0.5, 1.5, 1.0]), 0.1)
        assert cert.measured_sup == 1.5
        assert cert.margin == 0.5
        assert cert.passed  # 0.5 > 3 * 0.1
        tight = BoundCertificate(2.0, np.zeros(3, complex), np.array([0.5, 1.5, 1.0]), 0.2)
        assert tight.margin == 0.5 and not tight.passed  # 0.5 <= 3 * 0.2

    def test_supplied_rule_overrides_margin(self):
        cert = BoundCertificate(1.0, np.zeros(1, complex), np.array([2.0]), 0.0, passed=True)
        assert cert.margin == -1.0 and cert.passed


class TestConstantCase:
    def test_unit_gaussian_flat_at_inv_pi(self, gauss1, gauss1_rule, grid_d15):
        cert = constant_case_certificate(gauss1, grid_d15, 40, gauss1_rule)
        assert cert.constant_C == pytest.approx(INV_PI, rel=1e-15)
        assert cert.measured_sup <= INV_PI + 1e-4
        assert cert.metadata["measured_inf"] >= INV_PI - 1e-4
        assert cert.passed

    def test_scaled_gaussian_constant(self):
        # lap = 4/t = 2, so the constant is 2/(4 pi) = 1/(2 pi)
        w = WeightFunction.gaussian(2.0)
        rule = truncated_plane_rule(truncation_radius(w, 30), 256, 512)
        cert = constant_case_certificate(w, disk_lattice(1.0, 0.25), 30, rule)
        assert cert.constant_C == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
        assert cert.passed

    def test_harmonic_part_does_not_move_constant(self, grid_d15):
        w = WeightFunction.gaussian_harmonic(1.0, b=0.3)
        rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
        cert = constant_case_certificate(w, grid_d15, 40, rule)
        assert cert.constant_C == pytest.approx(INV_PI, rel=1e-15)
        assert cert.metadata["flatness_deviation"] < 1e-3
        assert cert.passed

    def test_nonconstant_laplacian_rejected(self, gauss1_rule, grid_d15):
        w = WeightFunction.oscillatory(1.0, 0.5)
        with pytest.raises(NonConstantLaplacianError):
            constant_case_certificate(w, grid_d15, 20, gauss1_rule)


class TestMeanValue:
    def test_constant_exact(self):
        h = SampleFunction.polynomial([1.0])
        for s in (0.3, 0.9):
            report = mean_value_check(h, s, tol=1e-14)
            assert report.passed

    def test_quadratic_monomial(self):
        h = SampleFunction.monomial(2)
        report = mean_value_check(h, 0.5, tol=1e-12)
        assert report.passed

    def test_exponential(self):
        h = SampleFunction.exponential(1.0)
        report = mean_value_check(h, 0.9, tol=1e-8)
        assert report.passed

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            mean_value_check(SampleFunction.monomial(1), 1.5)


class TestLocalBound:
    def test_constant_sample_ratio(self, gauss1):
        # closed form: ratio for f = 1 is 1 / (pi (1 - e^{-1}))
        cert = local_bound_certificate(gauss1, 4.0,
                                       [SampleFunction.polynomial([1.0])], 128)
        expected = 1.0 / (math.pi * (1.0 - math.exp(-1.0)))
        assert cert.measured_sup == pytest.approx(expected, rel=1e-9)
        assert cert.measured_sup <= cert.constant_C
        assert cert.passed

    def test_vanishing_sample(self, gauss1):
        cert = local_bound_certificate(gauss1, 4.0, [SampleFunction.monomial(1)], 128)
        assert cert.measured_sup == 0.0

    def test_fifty_random_polynomials(self, gauss1):
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(50):
            deg = int(rng.integers(0, 11))
            samples.append(SampleFunction.polynomial(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
        cert = local_bound_certificate(gauss1, 4.0, samples, 128)
        assert cert.passed
        assert cert.measured_sup <= cert.constant_C
        # the certificate constant is far from sharp; expect a wide gap
        assert cert.measured_sup < 0.5 * cert.constant_C

    def test_all_samples_skipped_rejected(self, gauss1):
        with pytest.raises(ValueError):
            local_bound_certificate(gauss1, 4.0,
                                    [SampleFunction.polynomial([0.0])], 64)

    def test_builds_no_potential(self, gauss1, monkeypatch):
        def no_potential(*args, **kwargs):
            raise AssertionError("the local lemma built a LogPotential")
        monkeypatch.setattr(greens.LogPotential, "__init__", no_potential)
        cert = local_bound_certificate(gauss1, 4.0, [SampleFunction.polynomial([1.0])], 64)
        assert cert.passed

    def test_violating_weight_rejected_with_point(self):
        # lap(phi) = 4 - 4.2 cos(x) cos(y) is -0.2 at the origin
        with pytest.raises(ValueError, match=r"violates 0 <= lap\(phi\) <= 5.0 at z = "):
            local_bound_certificate(WeightFunction.oscillatory(1.0, 2.1), 5.0,
                                    [SampleFunction.polynomial([1.0])], 64)


class TestGlobalCertificate:
    def test_unit_gaussian(self, gauss1, gauss1_rule):
        grid = disk_lattice(2.0, 0.25)
        cert = global_certificate(gauss1, 4.0, grid, 40, gauss1_rule)
        assert cert.passed
        assert cert.measured_sup == pytest.approx(INV_PI, rel=1e-3)
        # C = e^{(B + 1/4) 4} / pi is far above e / pi
        assert cert.constant_C > math.e / math.pi
        assert cert.margin > 3 * cert.error_estimate
        assert cert.metadata["tighter_constant"] < cert.constant_C

    def test_oscillatory(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
        cert = global_certificate(w, 5.0, disk_lattice(2.0, 0.25), 40, rule)
        assert cert.passed

    def test_builds_no_potential(self, monkeypatch):
        # Phi(0) for the tighter constant comes from the circle means alone
        def no_potential(*args, **kwargs):
            raise AssertionError("the global certificate built a LogPotential")
        monkeypatch.setattr(greens.LogPotential, "__init__", no_potential)
        w = WeightFunction.oscillatory(1.0, 0.5)
        rule = truncated_plane_rule(truncation_radius(w, 16), 64, 128)
        cert = global_certificate(w, 5.0, disk_lattice(1.0, 0.5), 16, rule)
        assert math.isfinite(cert.metadata["tighter_constant"])

    def test_invalid_weight_rejected_before_gram_builds(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("kernel estimate built before the weight was validated")
        monkeypatch.setattr(bounds, "build_kernel_estimate", no_build)
        w = WeightFunction.oscillatory(1.0, 3.0)
        rule = truncated_plane_rule(truncation_radius(w, 8), 32, 64)
        with pytest.raises(ValueError, match=r"violates 0 <= lap\(phi\) <= .* at z = "):
            global_certificate(w, w.laplacian_bounds[1], disk_lattice(1.0, 0.5), 8, rule)

    def test_translation_equivariance_of_diag(self, gauss1, gauss1_rule):
        z0 = 0.8 - 0.6j
        wt = translate_weight(gauss1, z0)
        lhs = build_kernel_estimate(wt, 30, gauss1_rule).diag(0.0)
        rule = disk_rule(z0, gauss1_rule.radius, 256, 512)  # gauss1_rule moved to z0
        rhs = build_kernel_estimate(gauss1, 30, rule).diag(z0)
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_translated_certificate_matches_pointwise(self, gauss1, gauss1_rule):
        z0 = 1.0 + 0.5j
        wt = translate_weight(gauss1, z0)
        rule_t = disk_rule(-z0, gauss1_rule.radius, 256, 512)
        prod_t = (build_kernel_estimate(wt, 30, rule_t).diag(0.0)
                  * math.exp(-wt.weight(0.0)))
        prod = (build_kernel_estimate(gauss1, 30, gauss1_rule).diag(z0)
                * math.exp(-gauss1.weight(z0)))
        assert prod_t == pytest.approx(prod, rel=1e-6)


class TestTranslatedPointwise:
    def test_constant_sample_at_origin(self, gauss1):
        report = translated_pointwise_check(
            gauss1, SampleFunction.polynomial([1.0]), 0.0, 128)
        assert report.passed
        # first chain value reproduces the local-lemma ratio bound
        lhs = report.check("local_step").value
        assert lhs == pytest.approx(1.0)

    def test_linear_sample_at_one(self, gauss1):
        report = translated_pointwise_check(
            gauss1, SampleFunction.monomial(1), 1.0, 128)
        assert report.passed

    def test_hundred_random_trials(self, gauss1):
        rng = np.random.default_rng(31)
        for _ in range(100):
            deg = int(rng.integers(0, 9))
            f = SampleFunction.polynomial(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            z = complex(*rng.uniform(-1.4, 1.4, 2))
            report = translated_pointwise_check(gauss1, f, z, 64)
            assert report.passed


class TestNormalization:
    def test_density_scaling_halves_diagonal(self, gauss1, gauss1_rule):
        # alpha -> 2 alpha: K halves, the weighted product is invariant
        doubled = WeightFunction.gaussian_harmonic(1.0, d=-math.log(2.0))
        z = 0.7 + 0.3j
        k1 = build_kernel_estimate(gauss1, 25, gauss1_rule).diag(z)
        k2 = build_kernel_estimate(doubled, 25, gauss1_rule).diag(z)
        assert k2 == pytest.approx(0.5 * k1, rel=1e-12)
        assert k2 * doubled.density(z) == pytest.approx(k1 * gauss1.density(z),
                                                        rel=1e-12)

    def test_certificate_constant_formula(self):
        assert certificate_constant(4.0) == pytest.approx(
            math.exp((B_EXACT + 0.25) * 4.0) / math.pi, rel=1e-15)
