import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holobound import (
    NonFiniteIntegrandError,
    disk_rule,
    integrate,
    integrate_with_error,
    masked_disk_rule,
    truncated_plane_rule,
)
from holobound import quadrature
from holobound.quadrature import (
    angle_levels,
    disk_lattice,
    gauss_legendre,
    half_resolution,
    random_disk_points,
    sunflower_points,
)
from oracles import leggauss, mp_gauss_legendre, numpy_random_disk_points


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 64, 256, 512])
    def test_matches_eigensolve_oracle(self, n):
        x, w = gauss_legendre(n)
        x_eig, w_eig = leggauss(n)
        assert np.max(np.abs(x - x_eig)) <= 4e-16
        # against the 40-digit reference the eigensolve's own weights are off
        # by 1e-17 to 4e-15 n^2 relative, irregularly in n: 1.3e-12 at n = 64
        # and 1.1e-10 at 512, but 8.2e-12 at 90 and 5.7e-10 at 400, above
        # this bound.  So the list keeps to degrees where the oracle itself
        # is within 1e-15 n^2; test_matches_40_digit_reference holds the
        # rule to the reference
        assert np.max(np.abs(w / w_eig - 1.0)) <= 1e-15 * n ** 2

    @pytest.mark.parametrize("n, weight_tol",
                             [(5, 1e-15), (16, 1e-14), (64, 1e-14), (128, 1e-14)])
    def test_matches_40_digit_reference(self, n, weight_tol):
        pytest.importorskip("mpmath")
        x, w = gauss_legendre(n)
        x_ref, w_ref = mp_gauss_legendre(n, leggauss(n)[0])
        assert max(abs(float(a - b)) for a, b in zip(x, x_ref)) <= 1e-16
        assert max(abs(float(a / b - 1)) for a, b in zip(w, w_ref)) <= weight_tol

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 512, 4096])
    def test_symmetric_and_exact_to_degree_2n_minus_1(self, n):
        x, w = gauss_legendre(n)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) <= 1e-14
        # int_{-1}^{1} x^k dx = 2 / (k + 1) for even k; odd k vanish by symmetry
        for k in np.array_split(np.arange(0, 2 * n, 2), max(1, n // 256)):
            exact = 2.0 / (k + 1)
            assert np.max(np.abs(w @ x[:, None] ** k / exact - 1.0)) <= 1e-15 * n + 1e-14
        assert abs(w @ x ** (2 * n - 1)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4096))
    @example(n=4095)
    def test_any_degree_is_a_mirrored_positive_rule(self, n):
        # crosses the k = 40 switch of the central binomials and FFT lengths
        # 4n + 2 with a large prime factor (n = 4095: 2n + 1 = 8191)
        x, w = gauss_legendre.__wrapped__(n)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) <= 1e-14
        if n % 2:
            assert x[n // 2] == 0.0

    def test_read_only_and_cached(self):
        x, w = gauss_legendre(64)
        assert gauss_legendre(64)[0] is x
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "NEWTON_CAP", 1)
        with pytest.raises(ArithmeticError, match="did not converge in 1 steps"):
            gauss_legendre.__wrapped__(64)


class TestDiskRule:
    def test_area(self, unit_disk_rule):
        assert integrate(unit_disk_rule, lambda z: 1.0) == pytest.approx(math.pi, rel=1e-10)

    def test_log_singularity(self, unit_disk_rule):
        # integral of (1/2pi) log|z| over the unit disk is exactly -1/4
        val = integrate(unit_disk_rule, lambda z: np.log(np.abs(z)) / (2 * np.pi))
        assert abs(val + 0.25) < 1e-6

    def test_odd_symmetry(self, unit_disk_rule):
        assert abs(integrate(unit_disk_rule, np.real)) < 1e-12

    def test_weight_sum_and_positivity(self):
        rule = disk_rule(1 + 2j, 3.0, 32, 64)
        assert rule.weights.min() > 0
        assert rule.weights.sum() == pytest.approx(9 * math.pi, rel=1e-8)
        assert (np.abs(rule.nodes - (1 + 2j)) <= 3.0).all()

    def test_polynomial_exactness(self):
        rule = disk_rule(0.0, 2.0, 16, 32)
        # integral of x^2 over D(0, R) = pi R^4 / 4
        val = integrate(rule, lambda z: np.real(z) ** 2)
        assert val == pytest.approx(math.pi * 2.0 ** 4 / 4.0, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            disk_rule(0.0, -1.0, 16, 32)
        with pytest.raises(ValueError):
            disk_rule(0.0, 1.0, 1, 32)
        with pytest.raises(ValueError):
            disk_rule(0.0, 1.0, 16, 2)


class TestLazyRule:
    def test_rings_build_no_nodes_and_nodes_are_cached(self):
        rule = disk_rule(1 + 2j, 3.0, 8, 16)
        center, r, w_r = rule.rings()
        assert "_tensor" not in vars(rule)
        nodes = rule.nodes
        assert rule.nodes is nodes and "_tensor" in vars(rule)
        # node i * n_theta + j is c + r_i e^{2 pi i j / n_theta}
        assert np.array_equal(nodes[::16], center + r)
        assert np.array_equal(rule.weights[::16], w_r * (2.0 * math.pi / 16))
        assert np.allclose(nodes[3::16], center + r * np.exp(2j * math.pi * 3 / 16),
                           rtol=0.0, atol=1e-15)

    def test_masked_rule_has_no_rings_and_halves_as_masked(self):
        rule = masked_disk_rule(0.5, 2.0, 0.0, 1.0, 32, 64)
        with pytest.raises(ValueError, match="masked_disk"):
            rule.rings()
        coarse = half_resolution(rule)
        assert (coarse.n_r, coarse.n_theta, coarse.excluded) == (16, 32, rule.excluded)
        assert (np.abs(coarse.nodes) >= 1.0).all()


class TestAngleLevels:
    RADII = np.array([0.5, 1.0, 2.0])

    @staticmethod
    def field(z):
        return np.cos(3.0 * z.real) + z.imag ** 2

    def test_levels_match_direct_sampling_at_new_angles_only(self):
        sizes = []
        counting = lambda z: (sizes.append(np.size(z)), self.field(z))[1]
        counts = []
        for m, values in angle_levels(counting, self.RADII, 4, 32):
            direct = self.field(self.RADII[:, None] * np.exp(2j * math.pi * np.arange(m) / m))
            assert np.array_equal(values, direct)  # bit for bit
            counts.append(m)
        assert counts == [4, 8, 16, 32]
        assert sizes == [12, 12, 24, 48]  # each doubling samples the new angles only

    def test_send_refines_the_chosen_rings(self):
        levels = angle_levels(self.field, self.RADII, 4, 16)
        m, values = next(levels)
        m, values = levels.send(np.array([False, True, False]))
        assert m == 8 and values.shape == (1, 8)
        assert np.array_equal(values[0], self.field(np.exp(2j * math.pi * np.arange(8) / 8)))
        m, values = levels.send(None)
        assert m == 16 and values.shape == (1, 16)
        with pytest.raises(StopIteration):
            levels.send(None)


class TestMaskedDiskRule:
    def test_annulus_area(self):
        rule = masked_disk_rule(0.0, 2.0, 0.0, 1.0, 256, 512)
        val = integrate(rule, lambda z: 1.0)
        assert val == pytest.approx(3 * math.pi, rel=1e-3)

    def test_log_bracket(self):
        # on D(1, 2) \ D(0, 1) the integrand log|z| lies in [0, log 3] and
        # the region area is below 4*pi
        rule = masked_disk_rule(1.0, 2.0, 0.0, 1.0, 256, 512)
        val = integrate(rule, lambda z: np.log(np.abs(z)))
        assert 0.0 <= val <= 4 * math.pi * math.log(3.0)

    def test_disjoint_mask_matches_plain_disk(self):
        plain = disk_rule(0.0, 1.0, 64, 128)
        masked = masked_disk_rule(0.0, 1.0, 5.0, 1.0, 64, 128)
        f = lambda z: np.exp(-np.abs(z) ** 2)
        assert integrate(masked, f) == pytest.approx(integrate(plain, f), abs=1e-10)

    def test_mask_monotone_in_excluded_radius(self):
        sums = [
            masked_disk_rule(0.5, 2.0, 0.0, r, 64, 128).weights.sum()
            for r in (0.25, 0.5, 1.0, 1.5)
        ]
        assert all(a >= b for a, b in zip(sums, sums[1:]))

    def test_nodes_outside_excluded_disk(self):
        rule = masked_disk_rule(0.5, 2.0, 0.0, 1.0, 32, 64)
        assert (np.abs(rule.nodes) >= 1.0).all()


class TestTruncatedPlaneRule:
    def test_gaussian_integral(self):
        # closed form: integral of exp(-|z|^2) over D(0, R) = pi (1 - exp(-R^2))
        rule = truncated_plane_rule(8.0, 128, 256)
        val = integrate(rule, lambda z: np.exp(-np.abs(z) ** 2))
        assert val == pytest.approx(math.pi * (1 - math.exp(-64.0)), rel=1e-12)
        assert val == pytest.approx(math.pi, abs=1e-10)

    def test_second_moment(self):
        # gamma-function oracle: integral of |z|^2 exp(-|z|^2) = pi * 1!
        rule = truncated_plane_rule(8.0, 128, 256)
        val = integrate(rule, lambda z: np.abs(z) ** 2 * np.exp(-np.abs(z) ** 2))
        assert val == pytest.approx(math.pi, abs=1e-9)

    def test_unit_radius_area(self):
        rule = truncated_plane_rule(1.0, 32, 64)
        assert integrate(rule, lambda z: 1.0) == pytest.approx(math.pi, rel=1e-10)


class TestIntegrate:
    def test_complex_integrand(self, unit_disk_rule):
        val = integrate(unit_disk_rule, lambda z: z)
        assert isinstance(val, complex)
        assert abs(val) < 1e-12

    def test_scalar_integrand_broadcast(self, unit_disk_rule):
        assert integrate(unit_disk_rule, lambda z: 2.0) == pytest.approx(2 * math.pi)

    def test_non_finite_value_identifies_node(self, unit_disk_rule):
        target = unit_disk_rule.nodes[7]

        def bad(z):
            out = np.ones(np.shape(z))
            return np.where(z == target, np.nan, out)

        with pytest.raises(NonFiniteIntegrandError) as exc:
            integrate(unit_disk_rule, bad)
        assert exc.value.index == 7
        assert repr(exc.value.node) in str(exc.value)

    def test_doubling_within_reported_error(self, unit_disk_rule):
        f = lambda z: np.log(np.abs(z)) / (2 * np.pi)
        val, err = integrate_with_error(unit_disk_rule, f)
        doubled = integrate(disk_rule(0.0, 1.0, 128, 256), f)
        assert abs(doubled - val) < 10 * err

    def test_rotation_invariance_for_radial_integrand(self, unit_disk_rule):
        # the rule's nodes turned by 0.37 rad: the integrand turned instead
        f = lambda z: np.exp(-np.abs(z) ** 2) * np.abs(z)
        rotated = lambda z: f(z * np.exp(0.37j))
        assert abs(integrate(unit_disk_rule, rotated) - integrate(unit_disk_rule, f)) < 1e-12


def test_recenter_change_of_variables(unit_disk_rule):
    shifted = disk_rule(1.0 + 1.0j, 1.0, 64, 128)
    f = lambda z: np.exp(-np.abs(z) ** 2)
    direct = integrate(shifted, f)
    substituted = integrate(unit_disk_rule, lambda z: f(z + 1.0 + 1.0j))
    assert direct == pytest.approx(substituted, rel=1e-14)
    assert shifted.center == 1.0 + 1.0j


def test_half_resolution_companion(unit_disk_rule):
    coarse = half_resolution(unit_disk_rule)
    assert coarse.n_r == 32 and coarse.n_theta == 64
    assert (coarse.center, coarse.radius) == (unit_disk_rule.center, unit_disk_rule.radius)


def test_point_sets():
    lattice = disk_lattice(1.5, 0.1)
    assert np.abs(lattice).max() <= 1.5 + 1e-9
    assert 0.0 in lattice
    spiral = sunflower_points(100, 3.0)
    assert len(spiral) == 100
    assert np.abs(spiral).max() <= 3.0


def test_random_points_reproducible_in_disk():
    pts = random_disk_points(200, 1.5, seed=7)
    assert len(pts) == 200
    assert np.abs(pts).max() <= 1.5
    assert np.array_equal(pts, random_disk_points(200, 1.5, seed=7))
    assert not np.array_equal(pts, random_disk_points(200, 1.5, seed=8))


_BLOCK = quadrature._DRAW_BLOCK
# a call draws 2 * count doubles, radii first: these counts put the end of
# the radii, and of the stream, on both sides of a block edge
_COUNTS = [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRandomDiskPoints:
    """The PCG64 stream reproduced in uint64 arithmetic gives numpy's
    ``default_rng`` points bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), count=st.sampled_from(_COUNTS))
    def test_matches_numpy_bit_for_bit(self, seed, count):
        assert _same_bits(random_disk_points(count, 0.98, seed),
                          numpy_random_disk_points(count, 0.98, seed))

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 128 + 5, 2 ** 200 + 12345])
    @pytest.mark.parametrize("count", _COUNTS)
    def test_matches_numpy_beyond_64_bit_seeds(self, seed, count):
        # seeds of 3 to 7 words: the pool's padding and the folding of words 5 and up
        assert _same_bits(random_disk_points(count, 1.5, seed),
                          numpy_random_disk_points(count, 1.5, seed))

    def test_matches_numpy_on_the_largest_grid(self):
        assert _same_bits(random_disk_points(10 ** 6, 2.0, 977),
                          numpy_random_disk_points(10 ** 6, 2.0, 977))

    def test_edge_cases_raise_as_numpy_does_and_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = random_disk_points(0, 1.0, 3)
            assert empty.dtype == np.complex128 and empty.shape == (0,)
            with pytest.raises(ValueError):
                random_disk_points(5, 1.0, -1)
            for seed in (1.5, "3", None):
                with pytest.raises(TypeError):
                    random_disk_points(5, 1.0, seed)
            expected = random_disk_points(50, 1.0, 12345)
            for seed in (np.int64(12345), np.uint64(12345), np.uint32(12345)):
                assert _same_bits(random_disk_points(50, 1.0, seed), expected)
            top = random_disk_points(50, 1.0, np.uint64(2 ** 64 - 1))
            assert _same_bits(top, random_disk_points(50, 1.0, 2 ** 64 - 1))


@pytest.mark.parametrize("make", [
    lambda radius, **kw: disk_lattice(radius, 0.1, **kw),
    lambda radius, **kw: sunflower_points(50, radius, **kw),
    lambda radius, **kw: random_disk_points(50, radius, seed=0, **kw),
], ids=["disk_lattice", "sunflower_points", "random_disk_points"])
def test_point_sets_fill_a_disk_about_the_origin(make):
    # each point set fills D(0, radius) and takes no other centre
    modulus = np.abs(make(1.5))
    assert modulus.max() <= 1.5 + 1e-12
    assert modulus.max() > 1.2
    with pytest.raises(TypeError):
        make(1.5, center=1.0)
