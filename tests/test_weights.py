import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobound import (
    ScalarField,
    WeightError,
    WeightFunction,
    fd_laplacian,
    normalized_gaussian,
    translate_weight,
    truncation_radius,
)
from holobound.quadrature import random_disk_points, sunflower_points
from oracles import validate_laplacian_bounds

ALL_FAMILIES = [
    WeightFunction.gaussian(1.0),
    WeightFunction.gaussian_harmonic(1.0, b=0.3, c=0.5 - 0.2j, d=0.1),
    WeightFunction.oscillatory(1.0, 0.5),
    WeightFunction.potential_defined(1.0),
]


class TestEvalWeight:
    def test_gaussian_at_origin(self):
        assert WeightFunction.gaussian(1.0).weight(0.0) == 0.0

    def test_gaussian_t2(self):
        assert WeightFunction.gaussian(2.0).weight(1 + 1j) == pytest.approx(1.0)

    def test_oscillatory_at_origin(self):
        # |0|^2 + 0.5 * cos(0) * cos(0)
        w = WeightFunction.oscillatory(1.0, 0.5)
        assert w.weight(0.0) == pytest.approx(0.5)

    def test_vectorized(self):
        w = WeightFunction.gaussian(1.0)
        zs = np.array([0.0, 1.0, 1j, 1 + 1j])
        assert np.allclose(w.weight(zs), [0.0, 1.0, 1.0, 2.0])

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(WeightError):
            WeightFunction.gaussian(-1.0)
        with pytest.raises(WeightError):
            WeightFunction.gaussian_harmonic(1.0, b=1.5)  # |b| >= a
        with pytest.raises(WeightError):
            WeightFunction.oscillatory(0.0, 0.5)
        with pytest.raises(WeightError):
            WeightFunction.potential_defined(1.0, psi_height=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: WeightFunction.gaussian(10 ** 400),
        lambda: WeightFunction.oscillatory(1.0, 10 ** 400),
        lambda: WeightFunction.gaussian_harmonic(1.0, d=-10 ** 400),
        lambda: WeightFunction.gaussian_harmonic(1.0, b=10 ** 400),
        lambda: WeightFunction.potential_defined(1.0, psi_height=None),
    ], ids=["gaussian", "oscillatory", "harmonic_d", "harmonic_b", "none"])
    def test_parameter_beyond_float_range_rejected(self, make):
        # an integer too large for a float is a WeightError, not an OverflowError
        with pytest.raises(WeightError, match="float range"):
            make()


class TestEvalLaplacian:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_gaussian_constant(self, t):
        w = WeightFunction.gaussian(t)
        for z in (0.0, 1 + 1j, -3.2 + 0.7j):
            assert w.laplacian(z) == pytest.approx(4.0 / t)

    def test_harmonic_addend_has_zero_laplacian(self):
        base = WeightFunction.gaussian(1.0)
        decorated = WeightFunction.gaussian_harmonic(1.0, b=0.3, c=1 - 2j, d=5.0)
        grid = sunflower_points(50, 3.0)
        assert np.max(np.abs(decorated.laplacian(grid)
                             - base.laplacian(grid))) < 1e-10

    def test_oscillatory_at_origin(self):
        # lap = 4a - 2 eps cos(x) cos(y) -> 4 - 2*0.5 at z = 0
        w = WeightFunction.oscillatory(1.0, 0.5)
        assert w.laplacian(0.0) == pytest.approx(3.0)
        assert abs(fd_laplacian(w.weight, 0.0, 1e-3) - 3.0) < 1e-5

    def test_potential_defined_closed_form(self):
        w = WeightFunction.potential_defined(2.0, psi_height=0.7)
        assert w.laplacian(0.0) == pytest.approx(8.0 + 0.7)
        assert w.laplacian(5.0) == pytest.approx(8.0)  # outside the bump


class TestFdLaplacian:
    def test_harmonic_field(self):
        f = lambda z: np.real(z * z)
        assert abs(fd_laplacian(f, 0.4 - 0.3j, 1e-3)) < 1e-6

    def test_abs_square(self):
        f = lambda z: np.abs(z) ** 2
        assert abs(fd_laplacian(f, 2 + 1j, 1e-3) - 4.0) < 1e-5

    def test_quartic(self):
        # d^2/dx^2 of x^4 is 12 x^2
        f = lambda z: np.real(z) ** 4
        assert abs(fd_laplacian(f, 1.0, 1e-3) - 12.0) < 1e-4

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_laplacian(lambda z: 0.0, 0.0, 0.0)


class TestValidateLaplacianBounds:
    def test_gaussian_passes_with_zero_margin(self):
        w = WeightFunction.gaussian(1.0)
        report = validate_laplacian_bounds(w, sunflower_points(64, 4.0), 1e-8)
        assert report.passed
        assert report.check("laplacian_min").value == pytest.approx(4.0)
        assert report.check("laplacian_max").value == pytest.approx(4.0)

    def test_oscillatory_hypothesis_violation_detected(self):
        # lap = 4 - 4.2 cos(x) cos(y) dips to -0.2 at the origin
        w = WeightFunction.oscillatory(1.0, 2.1)
        grid = np.concatenate([[0.0 + 0.0j], sunflower_points(30, 2.0)])
        report = validate_laplacian_bounds(w, grid, 1e-6)
        assert not report.passed
        assert not report.check("laplacian_min").ok
        assert report.check("laplacian_min").value == pytest.approx(-0.2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_laplacian_bounds(WeightFunction.gaussian(1.0), [], 1e-6)

    @pytest.mark.parametrize("w", ALL_FAMILIES, ids=lambda w: w.family)
    def test_fd_agreement_all_families(self, w):
        # closed-form Laplacian vs the finite-difference oracle, D(0, 5)
        grid = random_disk_points(100, 5.0, seed=12345)
        lap = np.asarray(w.laplacian(grid))
        fd = np.asarray(fd_laplacian(w.weight, grid, 1e-3))
        assert np.max(np.abs(lap - fd) / (1.0 + np.abs(lap))) <= 1e-4


class TestTranslateWeight:
    def test_translate_by_zero_is_identity(self, gauss1):
        grid = sunflower_points(32, 3.0)
        wt = translate_weight(gauss1, 0.0)
        assert np.array_equal(wt.weight(grid), gauss1.weight(grid))

    def test_translated_value(self, gauss1):
        wt = translate_weight(gauss1, 1.0)
        assert wt.weight(0.0) == pytest.approx(1.0)

    def test_roundtrip_is_exact(self):
        # offset 0: (0 + z0) - z0 is exactly 0
        grid = sunflower_points(32, 3.0)
        for w in ALL_FAMILIES:
            back = translate_weight(translate_weight(w, 1.3 - 0.8j), -1.3 + 0.8j)
            assert back == w
            assert np.array_equal(back.weight(grid), w.weight(grid))

    def test_roundtrip_of_translated_weight_is_rounded(self):
        # (0.1 + 0.7) - 0.7 rounds to 0.09999999999999998, not 0.1
        grid = sunflower_points(32, 3.0)
        for base in ALL_FAMILIES:
            w = translate_weight(base, 0.1)
            back = translate_weight(translate_weight(w, 0.7), -0.7)
            assert abs(back.offset - w.offset) <= 1e-16
            assert np.allclose(back.weight(grid), w.weight(grid), rtol=1e-14, atol=1e-14)

    def test_laplacian_chain_rule(self):
        z0 = 0.7 - 1.1j
        grid = sunflower_points(40, 2.0)
        for w in ALL_FAMILIES:
            wt = translate_weight(w, z0)
            assert np.allclose(wt.laplacian(grid),
                               w.laplacian(grid + z0), rtol=0, atol=1e-12)

    def test_bounds_preserved(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        assert translate_weight(w, 2 + 3j).laplacian_bounds == w.laplacian_bounds

    @settings(max_examples=25, deadline=None)
    @given(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
    def test_roundtrip_property(self, z0):
        w = WeightFunction.gaussian_harmonic(1.0, b=0.2, c=0.1j)
        grid = sunflower_points(8, 2.0)
        back = translate_weight(translate_weight(w, z0), -z0)
        assert back == w
        assert np.array_equal(back.weight(grid), w.weight(grid))


class TestSerialization:
    @pytest.mark.parametrize("w", ALL_FAMILIES + [translate_weight(ALL_FAMILIES[0], 1 - 2j),
                                                  translate_weight(ALL_FAMILIES[3], 0.5)],
                             ids=lambda w: w.family + str(w.offset))
    def test_roundtrip(self, w):
        desc = w.to_json()
        back = WeightFunction.from_json(desc)
        assert back == w
        grid = sunflower_points(16, 2.0)
        assert np.array_equal(back.weight(grid), w.weight(grid))

    def test_schema_shape(self, gauss1):
        desc = gauss1.to_json()
        assert set(desc) == {"family", "params", "laplacian_bounds"}
        assert desc["family"] == "gaussian"
        assert desc["laplacian_bounds"] == [4.0, 4.0]

    def test_unknown_family_rejected(self):
        with pytest.raises(WeightError):
            WeightFunction.from_json({"family": "polynomial", "params": {}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(WeightError):
            WeightFunction.from_json({"family": "gaussian", "params": {"t": 1.0},
                                      "extra": 1})

    def test_declared_bounds_may_widen(self):
        desc = {"family": "gaussian", "params": {"t": 1.0},
                "laplacian_bounds": [0.0, 10.0]}
        w = WeightFunction.from_json(desc)
        assert w.laplacian_bounds == (0.0, 10.0)

    def test_declared_bounds_must_contain_family_bounds(self):
        desc = {"family": "gaussian", "params": {"t": 1.0},
                "laplacian_bounds": [0.0, 3.0]}
        with pytest.raises(WeightError):
            WeightFunction.from_json(desc)

    @pytest.mark.parametrize("desc, name", [
        ({"family": "gaussian", "params": {"t": 1, "typo": 3}}, "typo"),
        ({"family": "gaussian_harmonic", "params": {"a": 1.0, "b": 0.3}}, "b"),
        ({"family": "potential_defined", "params": {"a": 1.0, "resolution": 320}},
         "resolution"),
    ], ids=["typo", "complex_b", "resolution"])
    def test_unknown_params_rejected(self, desc, name):
        with pytest.raises(WeightError, match=f"unknown parameters \\['{name}'\\]"):
            WeightFunction.from_json(desc)

    def test_missing_params_rejected(self):
        with pytest.raises(WeightError, match=r"missing parameters \['eps'\]"):
            WeightFunction.from_json({"family": "oscillatory", "params": {"a": 1.0}})

    @pytest.mark.parametrize("params", [{"t": math.inf}, {"t": math.nan},
                                        {"t": 1.0, "z0_re": math.inf}])
    def test_nonfinite_params_rejected(self, params):
        with pytest.raises(WeightError, match="must be finite"):
            WeightFunction.from_json({"family": "gaussian", "params": params})

    @pytest.mark.parametrize("bounds", [[4.0], "4, 4", [4.0, "5"], [4.0, 5.0, 6.0]])
    def test_malformed_declared_bounds_rejected(self, bounds):
        with pytest.raises(WeightError, match="pair of numbers"):
            WeightFunction.from_json({"family": "gaussian", "params": {"t": 1.0},
                                      "laplacian_bounds": bounds})

    def test_defaults_filled_in(self):
        w = WeightFunction.from_json({"family": "gaussian_harmonic", "params": {"a": 1.0}})
        assert w == WeightFunction.gaussian_harmonic(1.0)
        assert w.base_params() == {"a": 1.0, "b_re": 0.0, "b_im": 0.0,
                                   "c_re": 0.0, "c_im": 0.0, "d": 0.0}


class TestTruncationHint:
    def test_negligibility_at_hint(self, gauss1):
        R = truncation_radius(gauss1, 40)
        assert math.exp(-gauss1.weight(R)) * R ** 81 <= 1e-18 * (1 + 1e-6)

    def test_monotone_in_degree(self, gauss1):
        assert truncation_radius(gauss1, 10) < truncation_radius(gauss1, 40)

    def test_linear_rate_enlarges(self, gauss1):
        assert truncation_radius(gauss1, 10, linear_rate=2.0) > truncation_radius(gauss1, 10)


class TestScalarField:
    def test_scalar_passthrough(self):
        field = ScalarField(lambda z: np.abs(z) ** 2)
        assert field(2.0 + 1.0j) == pytest.approx(5.0)


def test_normalized_gaussian_density():
    w = normalized_gaussian(2.0)
    # density is (1/(2 pi)) exp(-|z|^2/2)
    assert w.density(0.0) == pytest.approx(1.0 / (2 * math.pi))
    assert w.laplacian(1.0) == pytest.approx(2.0)
