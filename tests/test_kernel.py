import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobound import kernel
from holobound import (
    PositiveDefinitenessError,
    SampleFunction,
    WeightFunction,
    build_kernel_estimate,
    disk_rule,
    gram_matrix,
    masked_disk_rule,
    normalized_gaussian,
    truncated_plane_rule,
    truncation_radius,
)
from holobound.quadrature import disk_lattice, random_disk_points, sunflower_points
from holobound.weights import translate_weight
from oracles import extremal_ratio, radial_kernel_diag, substitution_kernel_diag


@pytest.fixture(scope="module")
def rule_r10():
    return truncated_plane_rule(10.0, 256, 512)


def direct_gram(w, N, rule, center=0j):
    """The node sum G_mn = sum u (z - c)^m conj(z - c)^n as a Vandermonde
    product: the oracle for the FFT-in-angle assembly."""
    u = rule.weights * w.density(rule.nodes)
    V = (rule.nodes - center)[:, None] ** np.arange(N + 1)
    G = (V * u[:, None]).T @ V.conj()
    return 0.5 * (G + G.conj().T)


def equilibrated_error(G, oracle):
    d = np.sqrt(np.real(np.diag(oracle)))
    return float(np.max(np.abs(G - oracle) / np.outer(d, d)))


def gaussian_series(z, N):
    """K_N(z, z) of the unit Gaussian weight: (1/pi) sum_{n<=N} |z|^2n / n!"""
    return sum(abs(z) ** (2 * n) / math.factorial(n) for n in range(N + 1)) / math.pi


# the four families of the kernel-diag benchmark workload
DIAG_FAMILIES = {
    "gaussian": WeightFunction.gaussian(1.0),
    "harmonic": WeightFunction.gaussian_harmonic(1.0, b=0.3),
    "normalized": normalized_gaussian(1.0),
    "oscillatory": WeightFunction.oscillatory(1.0, 0.5),
}


# the weights of the ring-assembly oracle tests
RING_FAMILIES = {
    "gaussian": WeightFunction.gaussian(1.0),
    "harmonic": WeightFunction.gaussian_harmonic(1.0, b=0.3),
    "oscillatory": WeightFunction.oscillatory(1.0, 0.5),
    "potential_defined": WeightFunction.potential_defined(1.0),
    "gaussian_translated": translate_weight(WeightFunction.gaussian(1.0), 0.5),
}


@functools.lru_cache(maxsize=None)
def _full_rule_gram(family, n_theta):
    """The rule and direct_gram at degree 40 on it; the Gram of a lower degree
    is its leading block."""
    w = RING_FAMILIES[family]
    rule = truncated_plane_rule(truncation_radius(w, 40), 256, n_theta)
    return rule, direct_gram(w, 40, rule)


class TestGramMatrix:
    def test_gaussian_diagonal_factorials(self, gauss1, rule_r10):
        # radial oracle: G_nn = 2 pi * int r^(2n+1) e^(-r^2) dr = pi * n!
        G = gram_matrix(gauss1, 3, rule_r10)
        expected = [math.pi * math.factorial(n) for n in range(4)]
        assert np.allclose(np.real(np.diag(G)), expected, rtol=1e-8)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(G))

    def test_harmonic_term_breaks_diagonality(self, rule_r10):
        w = WeightFunction.gaussian_harmonic(1.0, c=1.0)
        G = gram_matrix(w, 4, rule_r10)
        assert abs(G[0, 1]) > 1e-3
        assert np.max(np.abs(G - G.conj().T)) == 0.0  # symmetrized exactly

    def test_degree_zero(self, gauss1):
        rule = truncated_plane_rule(6.0, 64, 128)
        G = gram_matrix(gauss1, 0, rule)
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(math.pi * (1 - math.exp(-36.0)), rel=1e-12)

    def test_not_positive_definite_names_eigenvalue(self, gauss1):
        # 8 nodes cannot support an 11-dimensional Gram matrix
        tiny = truncated_plane_rule(6.0, 2, 4)
        with pytest.raises(PositiveDefinitenessError) as exc:
            gram_matrix(gauss1, 10, tiny)
        assert "eigenvalue" in str(exc.value)
        assert exc.value.smallest_eigenvalue < 1e-10

    def test_degree_cap(self, gauss1, rule_r10):
        with pytest.raises(ValueError):
            gram_matrix(gauss1, 65, rule_r10)


class TestFFTAssembly:
    @pytest.mark.parametrize("family", sorted(DIAG_FAMILIES))
    def test_matches_direct_sum_on_diag_families(self, family):
        w = DIAG_FAMILIES[family]
        rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
        assert equilibrated_error(gram_matrix(w, 40, rule), direct_gram(w, 40, rule)) < 1e-12

    @pytest.mark.parametrize("make_rule, weight, N", [
        (lambda rule: disk_rule(0.8 - 0.6j, rule.radius, rule.n_r, rule.n_theta),
         WeightFunction.gaussian(1.0), 30),
        (lambda rule: disk_rule(2.0, 0.5, 64, 128), WeightFunction.gaussian(100.0), 40),
    ], ids=["recentred", "off_centre_disk"])
    def test_off_centre_rules_match_direct_sum(self, monkeypatch, gauss1_rule,
                                                make_rule, weight, N):
        # the estimate factors the Gram of (z - c)^j, c the rule's centre
        rule = make_rule(gauss1_rule)
        center = rule.rings()[0]
        est = build_kernel_estimate(weight, N, rule)
        monkeypatch.setattr(kernel, "_assemble_gram",
                            lambda w, N, rule: (center, direct_gram(w, N, rule, center),
                                                np.full(rule.n_r, rule.n_theta)))
        oracle = build_kernel_estimate(weight, N, rule)
        assert est.center == center
        assert equilibrated_error(est.gram, oracle.gram) < 1e-12
        assert est.effective_degree == oracle.effective_degree
        assert est.degraded == oracle.degraded

    def test_off_centre_rule_rejected(self, gauss1, gauss1_rule):
        # the monomial Gram is the assembly's own only on origin-centred rules
        rule = disk_rule(0.8 - 0.6j, gauss1_rule.radius, 256, 512)
        with pytest.raises(ValueError, match=r"centre \(0\.8-0\.6j\)"):
            gram_matrix(gauss1, 10, rule)
        assert gram_matrix(gauss1, 10, gauss1_rule).shape == (11, 11)

    def test_large_radius_does_not_overflow(self):
        # R ~ 277 at N = 64: R^128 overflows, the scaled powers do not
        w = WeightFunction.gaussian(100.0)
        rule = truncated_plane_rule(truncation_radius(w, 64), 64, 128)
        G = gram_matrix(w, 64, rule)
        assert np.all(np.isfinite(G))
        assert equilibrated_error(G, direct_gram(w, 64, rule)) < 1e-12

    def test_frequencies_wrap_past_n_theta(self, gauss1):
        # N = 10 needs angular frequencies up to 10 on a 4-angle rule; the
        # modular index reproduces the node sum, aliasing and all
        tiny = truncated_plane_rule(6.0, 2, 4)
        _, G, _ = kernel._assemble_gram(gauss1, 10, tiny)
        assert equilibrated_error(G, direct_gram(gauss1, 10, tiny)) < 1e-12

    def test_frequencies_wrap_past_odd_n_theta(self, gauss1):
        # an odd n_theta has no Nyquist frequency: 5 angles carry -2..2 only
        tiny = truncated_plane_rule(6.0, 3, 5)
        _, G, _ = kernel._assemble_gram(gauss1, 10, tiny)
        assert equilibrated_error(G, direct_gram(gauss1, 10, tiny)) < 1e-12

    def test_masked_rule_rejected(self, gauss1):
        rule = masked_disk_rule(0.0, 6.0, 0.0, 1.0, 32, 64)
        with pytest.raises(ValueError, match="masked_disk"):
            gram_matrix(gauss1, 5, rule)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.5, 2.0), b_ratio=st.floats(0.0, 0.9),
           b_arg=st.floats(0.0, 2.0 * math.pi),
           c=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
           center=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
           n_theta=st.sampled_from([96, 97]))
    def test_hermitian_and_matches_direct_sum(self, a, b_ratio, b_arg, c, center, n_theta):
        w = WeightFunction.gaussian_harmonic(a, b=b_ratio * a * complex(math.cos(b_arg),
                                                                        math.sin(b_arg)), c=c)
        rule = disk_rule(center, truncation_radius(w, 20), 48, n_theta)
        c, G, _ = kernel._assemble_gram(w, 20, rule)
        assert c == complex(center)
        assert np.array_equal(G, G.conj().T)
        assert equilibrated_error(G, direct_gram(w, 20, rule, c)) < 1e-12


class TestRingAssembly:
    """Each ring sampled at the angle count the density's modes need."""

    @pytest.mark.parametrize("n_theta", [512, 511])
    @pytest.mark.parametrize("N", [0, 1, 8, 40])
    @pytest.mark.parametrize("family", sorted(RING_FAMILIES))
    def test_equilibrated_gram_matches_the_full_rule(self, family, N, n_theta):
        rule, oracle = _full_rule_gram(family, n_theta)
        _, G, counts = kernel._assemble_gram(RING_FAMILIES[family], N, rule)
        assert equilibrated_error(G, oracle[:N + 1, :N + 1]) < 1e-12
        if n_theta % 2:  # no smaller count doubles to an odd one
            assert np.all(counts == n_theta)
        else:
            assert counts.min() == kernel._start_count(n_theta, N)
            assert counts.sum() < rule.n_r * n_theta

    @pytest.mark.parametrize("n_theta, N, start", [
        (512, 40, 128), (512, 0, 16), (1024, 40, 128), (192, 32, 96), (64, 8, 32),
        (4, 10, 4), (511, 8, 511), (80, 40, 80)])
    def test_start_count(self, n_theta, N, start):
        # the smallest n_theta / 2^j above 2N (and at least 16), else n_theta
        assert kernel._start_count(n_theta, N) == start

    def test_rings_where_the_density_underflows_take_the_start_count(self, gauss1):
        # exp(-r^2) is exactly 0 beyond r ~ 27.3
        rule = truncated_plane_rule(40.0, 64, 512)
        _, r, _ = rule.rings()
        _, _, counts = kernel._assemble_gram(gauss1, 5, rule)
        zero = gauss1.density(r + 0j) == 0.0
        assert zero.sum() >= 10
        assert np.all(counts[zero] == kernel._start_count(512, 5))

    def test_non_finite_ring_goes_to_the_cap(self, gauss1, monkeypatch):
        rule = truncated_plane_rule(10.0, 16, 256)
        _, r, _ = rule.rings()
        density = WeightFunction.density
        monkeypatch.setattr(WeightFunction, "density", lambda self, z: np.where(
            np.abs(np.abs(z) - r[3]) < 1e-12, np.nan, density(self, z)))
        _, G, counts = kernel._assemble_gram(gauss1, 5, rule)
        assert counts[3] == 256
        assert not np.all(np.isfinite(G))

    def test_kernel_path_builds_no_node_array(self, gauss1, monkeypatch):
        rule = truncated_plane_rule(truncation_radius(gauss1, 40), 512, 1024)
        sizes = []
        density = WeightFunction.density
        monkeypatch.setattr(WeightFunction, "density",
                            lambda self, z: (sizes.append(np.size(z)), density(self, z))[1])
        est = build_kernel_estimate(gauss1, 40, rule)
        assert "_tensor" not in vars(rule)
        assert sum(sizes) == est.angle_counts.sum() <= rule.n_r * rule.n_theta / 4
        assert est.angle_bands() == [[128, 512]]

    @pytest.mark.parametrize("family", ["gaussian", "potential_defined"])
    def test_matches_the_radial_1d_gram(self, family):
        # a radial weight's Gram is diagonal, G_nn = 2 pi int r^(2n+1) e^{-phi} dr;
        # potential_defined has a Laplacian that is not constant
        w = RING_FAMILIES[family]
        R = truncation_radius(w, 40)
        est = build_kernel_estimate(w, 40, truncated_plane_rule(R, 256, 512))
        zs = disk_lattice(2.0, 0.1)
        oracle = radial_kernel_diag(w, 40, zs, R)
        assert np.max(np.abs(est.diag(zs) - oracle) / oracle) <= 1e-9


class TestKernelDiag:
    def test_origin_value(self, gauss1, rule_r10):
        # only the constant term contributes at z = 0: 1 / G_00 = 1 / pi
        for N in (0, 5, 40):
            assert build_kernel_estimate(gauss1, N, rule_r10).diag(0.0) == pytest.approx(
                1.0 / math.pi, rel=1e-10)

    def test_truncated_series_at_one(self, gauss1, rule_r10):
        # series oracle: K_30(1, 1) = (1/pi) sum_{n<=30} 1/n!
        partial = sum(1.0 / math.factorial(n) for n in range(31)) / math.pi
        val = build_kernel_estimate(gauss1, 30, rule_r10).diag(1.0)
        assert val == pytest.approx(partial, rel=1e-9)
        assert val == pytest.approx(math.e / math.pi, rel=1e-6)

    def test_normalized_gaussian_exactness(self, rule_r10):
        # closed form e^{|z|^2 / t} for the normalized Gaussian density
        est = build_kernel_estimate(normalized_gaussian(1.0), 40, rule_r10)
        for z in (0.0, 0.5, 1.0, 1.0 + 1.0j, 1.5):
            expected = math.exp(abs(z) ** 2)
            assert est.diag(z) == pytest.approx(expected, rel=1e-6)

    def test_normalized_gaussian_other_parameter(self):
        w = normalized_gaussian(2.0)
        rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
        est = build_kernel_estimate(w, 40, rule)
        for z in (0.0, 1.0, 1.0 + 1.0j):
            expected = math.exp(abs(z) ** 2 / 2.0)
            assert est.diag(z) == pytest.approx(expected, rel=1e-6)

    def test_normalized_gaussian_narrow_parameter(self):
        # e^{|z|^2 / t} at t = 1/2: 1 at the origin for every t, e^2 at |z| = 1
        w = normalized_gaussian(0.5)
        rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
        est = build_kernel_estimate(w, 40, rule)
        assert est.diag(0.0) == pytest.approx(1.0, rel=1e-10)
        for z in (0.5j, 1.0, -0.6 + 0.8j):
            assert est.diag(z) == pytest.approx(math.exp(2.0 * abs(z) ** 2), rel=1e-6)

    def test_convergence_gap_shrinks(self, gauss1, rule_r10):
        est = build_kernel_estimate(gauss1, 40, rule_r10)
        assert est.convergence_gap(1.0) < 1e-8
        assert est.convergence_gap(1.0) < est.diag_at_degree(1.0, 10)

    def test_monotone_in_degree(self, rule_r10):
        w = WeightFunction.gaussian_harmonic(1.0, b=0.3)
        rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
        est = build_kernel_estimate(w, 40, rule)
        zs = random_disk_points(20, 1.5, seed=99)
        prev = None
        for n in range(5, 41):
            vals = est.diag_at_degree(zs, n)
            if prev is not None:
                assert np.all(vals >= prev - 1e-10)
            prev = vals

    def test_conjugation_symmetry(self, rule_r10):
        w = WeightFunction.gaussian_harmonic(1.0, b=0.2, c=0.4)
        est = build_kernel_estimate(w, 20, rule_r10)
        zs = random_disk_points(10, 1.5, seed=3)
        a = est.diag(zs)
        b = est.diag(np.conj(zs))
        assert np.allclose(a, b, rtol=1e-12)

    def test_translated_gaussian_off_the_real_axis(self, gauss1, gauss1_rule):
        # phi(z + z0) has K_N(z, z) = K_N^gauss(z + z0); a complex Gram, so
        # v^H G^-1 v and v^T G^-1 conj(v) differ off the real axis
        z0 = 0.8 - 0.6j
        zs = np.array([1j, -z0, 1.0 - 1.0j, 0.5 + 1.5j])
        vals = build_kernel_estimate(translate_weight(gauss1, z0), 30, gauss1_rule).diag(zs)
        expected = [gaussian_series(z + z0, 30) for z in zs]
        assert np.allclose(vals, expected, rtol=1e-10)

    def test_recentred_rule_with_recentred_weight(self, gauss1):
        # weight and rule both moved to c: the estimate in the basis (z - c)^j
        # reproduces the centred kernel at full degree
        c = 2.0
        rule = disk_rule(c, truncation_radius(gauss1, 64), 256, 512)
        est = build_kernel_estimate(translate_weight(gauss1, -c), 64, rule)
        assert est.effective_degree == 64
        zs = np.array([0.0, 0.5, 1.0 + 1.0j, -2.0 + 0.5j, 3j])
        expected = [gaussian_series(z, 64) for z in zs]
        assert np.allclose(est.diag(zs + c), expected, rtol=1e-12)

    def test_nonnegative(self, rule_r10, gauss1):
        zs = random_disk_points(50, 2.0, seed=8)
        assert (build_kernel_estimate(gauss1, 25, rule_r10).diag(zs) >= 0.0).all()

    def test_blocks_agree_with_one_block(self, rule_r10, monkeypatch):
        # a budget of 3 points at degree 40 splits 100 points into 34 blocks,
        # the last one short
        w = WeightFunction.gaussian_harmonic(1.0, b=0.3, c=0.2j)
        est = build_kernel_estimate(w, 40, rule_r10)
        zs = random_disk_points(100, 2.0, seed=12)
        whole = est.diag(zs)
        monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 3 * 41)
        blocked = est.diag(zs)
        assert blocked.shape == whole.shape
        assert np.max(np.abs(blocked - whole) / whole) <= 1e-15
        assert est.diag(zs[7]) == pytest.approx(whole[7], rel=1e-15)

    def test_vandermonde_matches_the_power_form(self):
        # the running product against z^j taken directly, on |z| <= 2
        zs = np.concatenate([[0.0, 2.0, -2.0j, 1e-3], random_disk_points(500, 2.0, seed=5)])
        powers = zs[:, None] ** np.arange(kernel.MAX_DEGREE + 1)
        V = kernel._vandermonde(zs, kernel.MAX_DEGREE)
        assert V.shape == powers.shape
        assert np.array_equal(V[0], powers[0])  # 0^0 = 1, 0^j = 0
        nonzero = powers != 0
        assert np.array_equal(V == 0, ~nonzero)
        assert np.max(np.abs(V - powers)[nonzero] / np.abs(powers[nonzero])) <= 1e-13


# the ring families with the translated Gaussian moved off the real axis, so
# one Gram is complex
ORACLE_FAMILIES = {**RING_FAMILIES,
                   "gaussian_translated": translate_weight(WeightFunction.gaussian(1.0),
                                                           0.3 + 0.4j)}


@functools.lru_cache(maxsize=None)
def _oracle_estimate(family, N):
    w = ORACLE_FAMILIES[family]
    return build_kernel_estimate(w, N, truncated_plane_rule(truncation_radius(w, 40), 128, 256))


@functools.lru_cache(maxsize=None)
def _degraded_estimate(center):
    gauss1 = WeightFunction.gaussian(1.0)
    return build_kernel_estimate(gauss1, 40, disk_rule(center, truncation_radius(gauss1, 40),
                                                       128, 256))


def _max_rel(a, b):
    return float(np.max(np.abs(a - b) / b))


class TestInverseFactor:
    """diag_at_degree (one product per block against C = L^-1 D^-1) against
    forward substitution rebuilt from the estimate's Gram alone."""

    @pytest.mark.parametrize("N", [0, 1, 8, 40])
    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_agrees_with_substitution(self, family, N):
        est = _oracle_estimate(family, N)
        assert est.effective_degree == N and est.condition_estimate <= 1e8
        block = kernel._BLOCK_ENTRIES // (N + 1)
        zs = random_disk_points(block + 1, 2.0, seed=N)
        for count in (1, block - 1, block, block + 1, 5025):
            pts = zs[:count]
            assert _max_rel(est.diag(pts), substitution_kernel_diag(est, pts, N)) <= 1e-12
        value = est.diag(0.7 - 1.1j)
        assert isinstance(value, float)
        assert value == pytest.approx(substitution_kernel_diag(est, 0.7 - 1.1j, N)[0], rel=1e-12)

    @pytest.mark.parametrize("N", [0, 1, 8, 40])
    def test_leading_degrees_agree_with_substitution(self, N):
        est = _oracle_estimate("harmonic", 40)
        zs = random_disk_points(300, 2.0, seed=41)
        assert _max_rel(est.diag_at_degree(zs, N), substitution_kernel_diag(est, zs, N)) <= 1e-12

    @pytest.mark.parametrize("center", [2.0, 3.0])
    def test_degraded_agrees_with_substitution(self, center):
        est = _degraded_estimate(center)
        assert est.degraded
        zs = np.concatenate([random_disk_points(500, 2.0, seed=4),
                             center + random_disk_points(500, 2.0, seed=5)])
        oracle = substitution_kernel_diag(est, zs, est.effective_degree)
        assert _max_rel(est.diag(zs), oracle) <= 1e-9

    def test_exactly_lower_triangular(self):
        estimates = [_oracle_estimate(f, N) for f in ORACLE_FAMILIES for N in (1, 8, 40)]
        for est in estimates + [_degraded_estimate(c) for c in (2.0, 3.0)]:
            C = est._inverse_factor
            assert C.shape == (est.effective_degree + 1,) * 2
            assert np.array_equal(np.triu(C, 1), np.zeros_like(C))
            assert np.all(np.diag(C).real > 0.0) and np.all(np.diag(C).imag == 0.0)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_gap_orders_the_diagonals_exactly(self, family):
        # K_{N-5} and K_N from one product: K_{N-5} <= K_N with no slack
        est = _oracle_estimate(family, 40)
        zs = random_disk_points(5025, 2.0, seed=6)
        gap = est.convergence_gap(zs)
        assert np.all(gap >= 0.0)
        hi = est.diag(zs)
        assert np.max(np.abs(gap - (hi - est.diag_at_degree(zs, 35)) / hi)) <= 1e-14

    def test_point_shapes(self):
        est = _oracle_estimate("oscillatory", 40)
        zs = random_disk_points(6, 2.0, seed=7).reshape(2, 3)
        for f in (est.diag, lambda z: est.diag_at_degree(z, 20), est.convergence_gap):
            out = f(zs)
            assert out.shape == (2, 3)
            assert np.array_equal(out, f(zs.ravel()).reshape(2, 3))
            assert isinstance(f(zs[0, 0]), float)
            assert f(np.array([])).shape == (0,)
            assert f(np.empty((0, 3), dtype=complex)).shape == (0, 3)

    @pytest.mark.parametrize("degree", [-1, 41])
    def test_degree_outside_the_factor_rejected(self, degree):
        with pytest.raises(ValueError, match="outside 0..40, the effective degree"):
            _oracle_estimate("gaussian", 40).diag_at_degree(0.5, degree)


class TestDegradation:
    def test_nearly_dependent_basis_degrades(self, gauss1):
        # the estimate's basis is (z - c)^j, c the rule's centre; with the
        # weight's mass three units from c those powers are nearly linearly
        # dependent under the weight, so the equilibrated Gram is ill
        # conditioned and the estimate must shrink to a well-conditioned
        # leading block
        rule = disk_rule(3.0, truncation_radius(gauss1, 40), 128, 256)
        est = build_kernel_estimate(gauss1, 40, rule)
        assert est.degraded
        assert est.effective_degree < 40
        assert est.condition_estimate <= 1e12
        assert est.diag(3.0) > 0.0

    def test_small_off_centre_disk_not_degraded(self):
        # the monomials z^m are nearly dependent on D(2, 0.5) (the estimate
        # used to fall to degree 6 there); the powers of z - 2 are not
        w = WeightFunction.gaussian(100.0)  # nearly flat on the disk
        est = build_kernel_estimate(w, 40, disk_rule(2.0, 0.5, 64, 128))
        assert not est.degraded
        assert est.condition_estimate < 10.0

    def test_well_conditioned_not_degraded(self, gauss1, rule_r10):
        est = build_kernel_estimate(gauss1, 40, rule_r10)
        assert not est.degraded
        assert est.effective_degree == 40
        assert est.condition_estimate < 1e3


class TestExtremalRatio:
    def test_constant_function(self, gauss1, rule_r10):
        f = SampleFunction.polynomial([1.0])
        # ||1||^2 = pi under e^{-|z|^2}
        assert extremal_ratio(gauss1, f, 0.0, rule_r10) == pytest.approx(
            1.0 / math.pi, rel=1e-10)

    def test_vanishing_at_point(self, gauss1, rule_r10):
        f = SampleFunction.polynomial([0.0, 1.0])
        assert extremal_ratio(gauss1, f, 0.0, rule_r10) == 0.0

    def test_exponential_sample_approaches_kernel(self, gauss1, rule_r10):
        # e^omega truncated to degree 30 is the extremal function at z = 1
        f = SampleFunction.polynomial([1 / math.factorial(k) for k in range(31)])
        ratio = extremal_ratio(gauss1, f, 1.0, rule_r10)
        diag = build_kernel_estimate(gauss1, 30, rule_r10).diag(1.0)
        assert ratio <= diag * (1 + 1e-10)
        assert ratio == pytest.approx(math.e / math.pi, rel=1e-4)

    def test_off_diagonal_kernel_section(self, gauss1, rule_r10):
        # pi K(z, i) = e^{-iz}, truncated to degree 30, is the extremal function
        # at z = i; at z = 1 it is e^{-i}, of unit modulus
        f = SampleFunction.polynomial([(-1j) ** k / math.factorial(k) for k in range(31)])
        assert f(1.0) == pytest.approx(complex(math.cos(1), -math.sin(1)), rel=1e-15)
        assert abs(f(1.0)) == pytest.approx(1.0, rel=1e-15)
        ratio = extremal_ratio(gauss1, f, 1j, rule_r10)
        diag = build_kernel_estimate(gauss1, 30, rule_r10).diag(1j)
        assert ratio <= diag * (1 + 1e-10)
        assert ratio == pytest.approx(math.e / math.pi, rel=1e-4)

    def test_zero_norm_rejected(self, gauss1, rule_r10):
        f = SampleFunction.polynomial([0.0])
        with pytest.raises(ValueError):
            extremal_ratio(gauss1, f, 0.0, rule_r10)

    def test_dominance_500_random_pairs(self, gauss1):
        rule = truncated_plane_rule(truncation_radius(gauss1, 10), 128, 256)
        est = build_kernel_estimate(gauss1, 10, rule)
        rng = np.random.default_rng(2024)
        for _ in range(500):
            degree = int(rng.integers(0, 11))
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            f = SampleFunction.polynomial(coeffs)
            ratio = extremal_ratio(gauss1, f, z, rule)
            diag = est.diag(z)
            assert ratio <= diag * (1 + 1e-8)


class TestSampleFunction:
    def test_degree(self):
        assert SampleFunction.polynomial([1.0, 0.0, 2.0]).degree == 2
        assert SampleFunction.polynomial([1.0, 0.0]).degree == 0
        assert SampleFunction.monomial(5).degree == 5

    def test_exponential_taylor_polynomial(self):
        # the degree-30 Taylor polynomial of e^z is e^z to rounding on |z| <= 1
        f = SampleFunction.polynomial([1 / math.factorial(k) for k in range(31)])
        zs = np.concatenate([[0.0, 1.0, -1.0, 1j], sunflower_points(40, 1.0)])
        assert np.allclose(f(zs), SampleFunction.exponential(1.0)(zs), rtol=1e-14, atol=0)

    def test_exponential_factor(self):
        f = SampleFunction.exponential(1.0)
        assert f(1.0) == pytest.approx(math.e, rel=1e-15)
        g = SampleFunction(coefficients=(0.0, 1.0), exp_rate=1.0)
        assert g(2.0) == pytest.approx(2.0 * math.e ** 2, rel=1e-14)

    def test_vectorized_evaluation(self):
        f = SampleFunction.polynomial([1.0, 1.0])
        zs = np.array([0.0, 1.0, 1.0j])
        assert np.allclose(f(zs), [1.0, 2.0, 1.0 + 1.0j])
