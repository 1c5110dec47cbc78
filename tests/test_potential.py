import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobound import (
    B_BRACKET,
    B_EXACT,
    ScalarField,
    WeightFunction,
    compute_B,
    cutoff_g,
    fd_laplacian,
    integrate,
    make_psi,
    masked_disk_rule,
    phi_at_origin,
    translate_weight,
    verify_potential_bounds,
)
from holobound import potential as potential_mod
from holobound import greens, quadrature, weights
from holobound.greens import LogPotential
from holobound.quadrature import random_disk_points, sunflower_points
from oracles import PlanarLogPotential, dense_modes_at


def stencil_points(n=200, radius=0.98, seed=17, h=1e-2):
    """Random points of the disk and their five-point stencils."""
    pts = random_disk_points(n, radius, seed=seed)
    return np.concatenate([pts, pts + h, pts - h, pts + 1j * h, pts - 1j * h])


class TestPointMassLimit:
    """Seen from outside its support, the potential of a unit mass is the
    fundamental solution Gamma(z) = log|z| / (2 pi)."""

    R = 0.25

    def _unit_mass(self, tilt=0.0):
        # height 1 / (pi R^2) on D(0, R); the tilt Re(z) / R adds no mass
        height = 1.0 / (math.pi * self.R ** 2)
        return LogPotential(
            ScalarField(lambda z: height * (1.0 + tilt * np.real(z) / self.R)),
            support_radius=self.R)

    def test_unit_circle_zero(self):
        lp = self._unit_mass()
        assert lp.mass == pytest.approx(1.0, rel=1e-14)
        assert lp(1.0) == 0.0
        assert abs(lp(1j)) < 1e-16

    def test_at_e(self):
        assert self._unit_mass()(math.e) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_at_half(self):
        val = self._unit_mass()(0.5)
        assert val == pytest.approx(-0.110318, abs=1e-6)
        assert val == pytest.approx(math.log(0.5) / (2 * math.pi), rel=1e-14)

    def test_circle_mean_of_tilted_mass(self):
        # a non-radial unit mass keeps mode 0 = Gamma (Jensen), so its
        # circle means beyond the support are Gamma while the values are not
        lp = self._unit_mass(tilt=0.5)
        assert lp.n_modes > 1
        for r in (0.5, 1.0, math.e):
            ring = r * np.exp(2j * np.pi * np.arange(64) / 64)
            vals = lp(ring)
            assert np.ptp(vals) > 1e-3
            assert np.mean(vals) == pytest.approx(math.log(r) / (2 * math.pi), abs=1e-14)


class TestCutoff:
    def test_one_on_unit_disk(self):
        assert cutoff_g(0.5) == 1.0
        assert cutoff_g(0.25 + 0.5j) == 1.0
        assert cutoff_g(1.0) == 1.0

    def test_zero_outside(self):
        assert cutoff_g(3.0) == 0.0
        assert cutoff_g(2.0) == 0.0

    def test_midpoint_half_by_symmetry(self):
        assert cutoff_g(1.5) == 0.5

    def test_range_and_radiality(self):
        grid = sunflower_points(200, 3.0)
        vals = cutoff_g(grid)
        assert ((0.0 <= vals) & (vals <= 1.0)).all()
        r = np.linspace(0.01, 3.0, 50)
        assert np.allclose(cutoff_g(r), cutoff_g(1j * r), atol=1e-15)


class TestMakePsi:
    def test_gaussian_values(self, gauss1):
        potential = make_psi(gauss1, 4.0)
        assert potential.psi(0.0) == pytest.approx(4.0)
        assert potential.psi(3.0) == 0.0

    def test_psi_equals_laplacian_on_unit_disk(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w, 5.0)
        grid = sunflower_points(60, 1.0)
        assert np.max(np.abs(potential.psi(grid) - w.laplacian(grid))) < 1e-12

    def test_cutoff_scaling_at_one_point_five(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w, 5.0)
        z = 1.5 * np.exp(0.4j)
        assert potential.psi(z) == pytest.approx(0.5 * w.laplacian(z), rel=1e-12)

    def test_psi_range(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w, 5.0)
        vals = potential.psi(sunflower_points(300, 2.5))
        assert ((0.0 <= vals) & (vals <= 5.0)).all()

    def test_violating_weight_rejected_with_point(self):
        w = WeightFunction.oscillatory(1.0, 2.1)
        with pytest.raises(ValueError, match="violates"):
            make_psi(w, 5.0)


class TestConvolution:
    def test_zero_density_gives_zero(self):
        zero = ScalarField(lambda z: np.zeros(np.shape(z)))
        potential = LogPotential(zero, support_radius=2.0, resolution=64)
        assert potential.n_modes == 1
        for z in (0.0, 1.0 + 2.0j, 7.0):
            assert potential(z) == 0.0

    def test_poisson_equation(self, gauss1):
        # lap(Phi) = psi at interior points, via the fd oracle
        potential = make_psi(gauss1, 4.0, resolution=256)
        pts = random_disk_points(20, 0.9, seed=21)
        resid = np.abs(fd_laplacian(potential, pts, 1e-2) - potential.psi(pts))
        assert resid.max() < 1e-3

    def test_origin_lower_bound(self, gauss1):
        assert make_psi(gauss1, 4.0, resolution=256)(0.0) >= -1.0  # -M/4 with M = 4

    def test_harmonic_far_from_support(self, gauss1):
        potential = make_psi(gauss1, 4.0, resolution=256)
        for z in (4.5, 4.0 + 3.0j, -6.0 + 0.5j):
            assert abs(fd_laplacian(potential, z, 1e-2)) < 1e-3

    def test_far_field_log_asymptotics(self, gauss1):
        # Phi(z) ~ (total mass / 2 pi) log|z| far from the support
        potential = make_psi(gauss1, 4.0)
        z = 200.0
        expected = potential.mass * math.log(abs(z)) / (2 * math.pi)
        assert potential(z) == pytest.approx(expected, rel=1e-3)


class TestRadialPotential:
    """The one-mode (radial) case of LogPotential against independent oracles."""

    def test_uniform_disk_closed_form(self):
        # density 1 on the unit disk: Phi = r^2/4 - 1/4 inside, log(r)/2 beyond
        disk = ScalarField(lambda z: np.ones(np.shape(z)))
        lp = LogPotential(disk, support_radius=1.0)
        assert lp.n_modes == 1
        assert lp.mass == pytest.approx(math.pi, rel=1e-14)
        for r in (np.array([0.0, 1e-12, 1e-6, 1e-3]), np.linspace(0.0, 3.0, 301)):
            exact = np.where(r <= 1.0, r * r / 4.0 - 0.25, np.log(np.maximum(r, 1.0)) / 2.0)
            assert np.max(np.abs(lp.values(r) - exact)) < 1e-12

    @pytest.mark.parametrize("w, M", [
        (WeightFunction.gaussian(1.0), 4.0),
        (WeightFunction.potential_defined(1.0), 5.0),
    ], ids=["gaussian", "potential_defined"])
    def test_agrees_with_2d_engine(self, w, M):
        potential = make_psi(w, M)
        assert potential.n_modes == 1
        zs = stencil_points()
        planar = PlanarLogPotential(potential.psi, support_radius=2.0, resolution=256)
        assert np.max(np.abs(potential(zs) - planar(zs))) < 1e-7

    def test_unflagged_radial_psi_keeps_one_mode(self):
        # no weight family declares this psi radial: the samples show it
        psi = ScalarField(lambda z: cutoff_g(z) * np.exp(-np.abs(z) ** 2))
        potential = LogPotential(psi, support_radius=2.0)
        assert potential.n_modes == 1
        zs = stencil_points()
        planar = PlanarLogPotential(psi, support_radius=2.0, resolution=256)
        assert np.max(np.abs(potential(zs) - planar(zs))) < 1e-7

    def test_bump_weight_potential_keeps_one_mode(self, monkeypatch):
        built = []

        class Recorded(LogPotential):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(weights, "LogPotential", Recorded)
        WeightFunction.potential_defined(1.0, psi_height=2.0)
        assert [p.n_modes for p in built] == [1]

    def test_builds_no_2d_rule(self, gauss1, monkeypatch):
        def no_rule(*args, **kwargs):
            raise AssertionError("the potential built a 2-D rule")
        monkeypatch.setattr(quadrature, "_disk", no_rule)
        zs = random_disk_points(50, 3.0, seed=4)
        assert np.all(np.isfinite(make_psi(gauss1, 4.0)(zs)))
        assert np.all(np.isfinite(WeightFunction.potential_defined(1.0).weight(zs)))
        assert np.all(np.isfinite(make_psi(WeightFunction.oscillatory(1.0, 0.5), 5.0)(zs)))

    def test_widened_bounds_keep_the_radial_path(self, gauss1):
        # radiality is measured from psi, not read from the declared range:
        # a gaussian declared with [0, 10] still keeps one mode
        wide = WeightFunction.from_json(
            {"family": "gaussian", "params": {"t": 1}, "laplacian_bounds": [0, 10]})
        zs = np.concatenate([random_disk_points(50, 3.0, seed=4), [0.3 + 0.1j]])
        expected = make_psi(gauss1, 4.0)(zs)
        widened = make_psi(wide, 10.0)
        assert widened.n_modes == 1
        assert np.array_equal(widened(zs), expected)


def closed_form_pair(m, k, c):
    """u = (4 - |z|^2)^m Re(c z^k) on D(0, 2), 0 outside, and psi = lap u,
    so that Gamma * psi = u exactly (u is C^2 and compactly supported)."""
    def u(z):
        q = np.abs(z) ** 2
        return np.where(q < 4.0, np.maximum(4.0 - q, 0.0) ** m * np.real(c * z ** k), 0.0)

    def psi(z):
        q = np.abs(z) ** 2
        f1 = -m * np.maximum(4.0 - q, 0.0) ** (m - 1)
        f2 = m * (m - 1) * np.maximum(4.0 - q, 0.0) ** (m - 2)
        return np.real(c * z ** k) * 4.0 * (f1 + q * f2 + k * f1)

    return u, ScalarField(psi)


class TestFourierPotential:
    """LogPotential on non-radial psi: angular modes against independent oracles."""

    @settings(deadline=None, max_examples=30)
    @given(m=st.sampled_from([3, 4]), k=st.integers(0, 8),
           modulus=st.floats(0.1, 10.0), arg=st.floats(0.0, 2.0 * math.pi))
    def test_closed_form(self, m, k, modulus, arg):
        c = modulus * complex(math.cos(arg), math.sin(arg))
        u, psi = closed_form_pair(m, k, c)
        potential = LogPotential(psi, support_radius=2.0)
        # the origin, both seams, outside the support, and random points
        zs = np.concatenate([
            [0.0, 2.0, np.exp(0.7j) * 2.0, 2.5, -4.0 + 3.0j],
            np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 7)),
            random_disk_points(40, 3.0, seed=k + 11 * m)])
        s = np.linspace(0.0, 2.0, 2001)
        scale = modulus * np.max((4.0 - s * s) ** m * s ** k)
        assert np.max(np.abs(potential(zs) - u(zs))) <= 1e-12 * scale

    def test_rounding_noise_does_not_double_the_angles(self):
        # modes +-8 only: 32 angles resolve them exactly, and the rounding
        # left in the top half of the modes stays below the tail limit
        for m, c in ((3, 1.0), (3, 10.0 * np.exp(2.1j)), (4, 1j)):
            _, psi = closed_form_pair(m, 8, c)
            assert LogPotential(psi, support_radius=2.0).n_theta == 32

    @pytest.mark.parametrize("w, M", [
        (WeightFunction.oscillatory(1.0, 0.5), 5.0),
        (translate_weight(WeightFunction.potential_defined(1.0), 0.5), 5.0),
    ], ids=["oscillatory", "translated_bump"])
    def test_agrees_with_2d_oracle(self, w, M):
        potential = make_psi(w, M)
        assert potential.n_modes > 1
        zs = stencil_points()
        planar = PlanarLogPotential(potential.psi, support_radius=2.0, resolution=256)
        assert np.max(np.abs(potential(zs) - planar(zs))) < 1e-7

    def test_mode_count_follows_the_samples(self):
        # the oscillatory psi needs few angles, the translated bump many, and
        # its trailing modes below the tail limit are cut; a constant
        # Laplacian keeps one mode about every centre
        assert make_psi(WeightFunction.oscillatory(1.0, 0.5), 5.0).n_theta <= 128
        bump = make_psi(translate_weight(WeightFunction.potential_defined(1.0), 0.5), 5.0)
        assert bump.n_theta >= 512
        assert bump.n_modes < bump.n_theta // 4 + 1
        assert make_psi(translate_weight(WeightFunction.gaussian(1.0), 0.5), 4.0).n_modes == 1
        harmonic = WeightFunction.gaussian_harmonic(1.0, b=0.3, c=0.2j)
        assert make_psi(harmonic, 4.0).n_modes == 1

    @pytest.mark.parametrize("w, radial", [(WeightFunction.gaussian(1.0), True),
                                           (WeightFunction.oscillatory(1.0, 0.5), False)])
    def test_points_keep_their_shape(self, w, radial):
        # the radial branch and the multi-mode branch, on a grid inside and
        # outside the support: bit-identical to the raveled call
        potential = make_psi(w, 5.0, resolution=32)
        assert (potential.n_modes == 1) == radial
        zs = np.concatenate([random_disk_points(6, 3.0, seed=9), [0.0, 2.5j]]).reshape(2, 2, 2)
        for f in (potential, potential.values):
            out = f(zs)
            assert out.shape == (2, 2, 2)
            assert np.array_equal(out, f(zs.ravel()).reshape(zs.shape))
        assert potential.values(np.empty((0, 2), dtype=complex)).shape == (0, 2)

    def test_discontinuous_in_angle_rejected_with_tail(self):
        half = ScalarField(lambda z: cutoff_g(z) * (np.real(z) > 0.0))
        with pytest.raises(ValueError, match="top half of its Fourier modes reaches"):
            LogPotential(half, support_radius=2.0, resolution=32)


# the one-mode branch and the multi-mode branch of LogPotential.values
BRANCHES = pytest.mark.parametrize("w, M", [
    (WeightFunction.gaussian(1.0), 4.0),
    (WeightFunction.oscillatory(1.0, 0.5), 5.0),
], ids=["gaussian", "oscillatory"])


class TestBlockedEvaluation:
    """Phi_k between the rings, block by block on the real view of the mode
    table, against the dense barycentric product it replaced."""

    @BRANCHES
    def test_nan_point_gives_nan(self, w, M):
        potential = make_psi(w, M, resolution=64)
        zs = np.array([0.3 + 0.1j, np.nan, 1.5j, complex(np.nan, 1.0), 2.5])
        potential(zs[:1])  # an earlier evaluation leaves its memory behind
        out = potential(zs)
        assert np.array_equal(np.isnan(out), np.isnan(zs))
        assert np.isnan(potential(complex(np.nan)))
        finite = ~np.isnan(zs)
        assert np.max(np.abs(out[finite] - potential(zs[finite]))) <= 1e-15

    @BRANCHES
    def test_memory(self, w, M):
        # one dense (5000 x 256) interpolation matrix and its complex copy
        # take 25-27 MB here
        potential = make_psi(w, M, resolution=256)
        zs = sunflower_points(5000, 0.98)
        tracemalloc.start()
        try:
            potential.values(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @BRANCHES
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges_against_dense_oracle(self, w, M, offset, monkeypatch):
        potential = make_psi(w, M, resolution=64)
        monkeypatch.setattr(greens, "_BLOCK_ENTRIES", 5 * 64)
        rng = np.random.default_rng(offset + 2)
        # one piece alone, then every piece and the multipole range at once
        for lo, hi in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.5)):
            count = 5 * (3 if hi > 2.0 else 1) + offset
            r = np.sort(rng.uniform(lo, hi, count))
            got = potential._modes_at(r)
            assert np.max(np.abs(got - dense_modes_at(potential, r))) <= 1e-14

    @BRANCHES
    def test_rings_give_table_rows(self, w, M, monkeypatch):
        # every ring, the piece ends 0, 1 and 2 included, is an exact hit
        potential = make_psi(w, M, resolution=64)
        monkeypatch.setattr(greens, "_BLOCK_ENTRIES", 7 * 64)
        r = potential._rings.ravel()
        rows = potential._table.reshape(-1, potential.n_modes)
        r, first = np.unique(r, return_index=True)
        assert r[0] == 0.0 and 1.0 in r and r[-1] == 2.0
        got = potential._modes_at(r)
        assert np.array_equal(got, rows[first])
        assert np.max(np.abs(got - dense_modes_at(potential, r))) <= 1e-14


# one weight per family of the weights table, each at its own upper bound M
FAMILY_EXAMPLES = {
    "gaussian": WeightFunction.gaussian(1.0),
    "gaussian_harmonic": WeightFunction.gaussian_harmonic(1.0, b=0.3, c=0.2j, d=0.1),
    "oscillatory": WeightFunction.oscillatory(1.5, 1.0),
    "potential_defined": WeightFunction.potential_defined(1.0),
}


class TestPhiAtOrigin:
    """Phi(0) from the circle means, against the whole potential at resolution 256."""

    @staticmethod
    def whole(w):
        return make_psi(w, w.laplacian_bounds[1], resolution=256)(0.0 + 0.0j)

    def test_every_family_is_listed(self):
        assert set(FAMILY_EXAMPLES) == set(weights._FAMILIES)

    @pytest.mark.parametrize("w", [
        *FAMILY_EXAMPLES.values(),
        translate_weight(WeightFunction.potential_defined(1.0), 0.5),
        WeightFunction.oscillatory(1.0, 0.5),
    ], ids=[*FAMILY_EXAMPLES, "translated_bump", "oscillatory_1_0.5"])
    def test_agrees_with_whole_potential(self, w):
        assert abs(phi_at_origin(w, w.laplacian_bounds[1]) - self.whole(w)) < 1e-13

    @settings(deadline=None, max_examples=15)
    @given(a=st.floats(0.5, 2.0), ratio=st.floats(0.0, 1.0),
           shift=st.complex_numbers(max_magnitude=1.0))
    def test_oscillatory_hypothesis(self, a, ratio, shift):
        # eps <= 2a keeps lap(phi) = 4a - 2 eps cos(x) cos(y) >= 0, about any centre
        w = translate_weight(WeightFunction.oscillatory(a, 2.0 * a * ratio), shift)
        assert abs(phi_at_origin(w, w.laplacian_bounds[1]) - self.whole(w)) < 1e-13

    @settings(deadline=None, max_examples=15)
    @given(t=st.floats(0.5, 2.0), modulus=st.floats(0.0, 1.5),
           arg=st.floats(0.0, 2.0 * math.pi))
    def test_translated_gaussian_hypothesis(self, t, modulus, arg):
        z0 = modulus * complex(math.cos(arg), math.sin(arg))
        w = translate_weight(WeightFunction.gaussian(t), z0)
        assert abs(phi_at_origin(w, w.laplacian_bounds[1]) - self.whole(w)) < 1e-13

    @pytest.mark.parametrize("w", [
        translate_weight(WeightFunction.potential_defined(1.0), 0.5),
        WeightFunction.oscillatory(1.0, 0.5),
        WeightFunction.gaussian(1.0),
    ], ids=["translated_bump", "oscillatory", "gaussian"])
    def test_doubling_the_radial_nodes(self, w, monkeypatch):
        M = w.laplacian_bounds[1]
        base = phi_at_origin(w, M)
        monkeypatch.setattr(potential_mod, "ORIGIN_NODES", 2 * potential_mod.ORIGIN_NODES)
        assert abs(phi_at_origin(w, M) - base) < 1e-14

    def test_tail_rule_samples_only_the_new_angles(self):
        # 256 rings at 16 + 16 + 32 angles, not 16 + 32 + 64: each doubling
        # samples psi at the new odd angles and keeps the earlier samples
        psi = potential_mod._cutoff_density(WeightFunction.oscillatory(1.0, 0.5))
        sizes = []
        counting = lambda z: (sizes.append(np.size(z)), psi(z))[1]
        rings = np.linspace(0.0, 2.0, 256)
        n_theta, modes = greens.angular_modes(counting, rings)
        assert n_theta == 64 and sum(sizes) == 256 * 64
        # the same modes as sampling every angle at once, bit for bit
        values = psi(rings[:, None] * np.exp(2j * math.pi * np.arange(64) / 64))
        assert np.array_equal(modes, np.fft.rfft(values, axis=-1)[:, :modes.shape[1]] / 64)

    def test_violating_weight_rejected_with_point(self):
        # lap(phi) = 4 - 4.2 cos(x) cos(y) is -0.2 at the origin
        with pytest.raises(ValueError, match=r"violates 0 <= lap\(phi\) <= 5.0 at z = "):
            phi_at_origin(WeightFunction.oscillatory(1.0, 2.1), 5.0)


class TestComputeB:
    def test_bracket(self):
        B = compute_B()
        assert B_BRACKET[0] <= B <= B_BRACKET[1]

    def test_against_closed_form(self):
        # an upper estimate of the exact value, by construction
        assert B_EXACT <= compute_B() <= B_EXACT + 1e-6

    def test_grid_doubling_drift(self):
        drift = abs(compute_B(64, 24) - compute_B(64, 48))
        assert drift < 1e-3

    def test_small_omega_grid_rejected(self):
        with pytest.raises(ValueError):
            compute_B(64, 8)

    @settings(deadline=None, max_examples=25)
    @given(r=st.floats(0.0, 1.0), theta=st.floats(0.0, 2.0 * math.pi))
    def test_masked_integral_closed_form(self, r, theta):
        # circle-mean identity: the masked integral of log|zeta| over
        # D(omega, 2) \ D(0, 1) is 2 pi (2 log 2 - 1) + pi |omega|^2 / 2 + pi / 2
        omega = r * complex(math.cos(theta), math.sin(theta))
        rule = masked_disk_rule(omega, 2.0, 0.0, 1.0, 4 * 64, 8 * 64)
        value = integrate(rule, lambda z: np.log(np.abs(z)))
        exact = (2.0 * math.pi * (2.0 * math.log(2.0) - 1.0)
                 + math.pi * r * r / 2.0 + math.pi / 2.0)
        assert value == pytest.approx(exact, rel=2e-4)


class TestVerifyPotentialBounds:
    def test_gaussian_all_checks_pass(self, gauss1):
        potential = make_psi(gauss1, 4.0, resolution=256)
        grid = random_disk_points(60, 0.95, seed=5)
        report, _ = verify_potential_bounds(potential, 4.0, grid, tol=1e-3)
        assert report.passed

    def test_oscillatory_passes(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w, 5.0, resolution=256)
        grid = random_disk_points(60, 0.95, seed=6)
        report, _ = verify_potential_bounds(potential, 5.0, grid, tol=1e-3)
        assert report.passed

    def test_zero_psi_trivially_passes(self):
        zero = ScalarField(lambda z: np.zeros(np.shape(z)))
        potential = LogPotential(zero, support_radius=2.0, resolution=64)
        grid = sunflower_points(30, 0.9)
        report, _ = verify_potential_bounds(potential, 0.0, grid, tol=1e-6)
        assert report.passed
        assert report.check("phi_upper").value == pytest.approx(0.0, abs=1e-15)

    def test_grid_outside_disk_rejected(self, gauss1):
        potential = make_psi(gauss1, 4.0)
        with pytest.raises(ValueError):
            verify_potential_bounds(potential, 4.0, [1.5 + 0.0j], tol=1e-3)
