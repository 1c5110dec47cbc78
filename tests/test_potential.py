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
from oracles import (
    AllModesLogPotential,
    PlanarLogPotential,
    dense_modes_at,
    fixed_rings,
    gauss_legendre,
    gl_piece_rule,
    ifft_at_gaps,
    leggauss,
    sequential_ring_sums,
)


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
        potential = make_psi(gauss1)
        assert potential.psi(0.0) == pytest.approx(4.0)
        assert potential.psi(3.0) == 0.0

    def test_psi_equals_laplacian_on_unit_disk(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w)
        grid = sunflower_points(60, 1.0)
        assert np.max(np.abs(potential.psi(grid) - w.laplacian(grid))) < 1e-12

    def test_cutoff_scaling_at_one_point_five(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w)
        z = 1.5 * np.exp(0.4j)
        assert potential.psi(z) == pytest.approx(0.5 * w.laplacian(z), rel=1e-12)

    def test_psi_range(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w)
        vals = potential.psi(sunflower_points(300, 2.5))
        assert ((0.0 <= vals) & (vals <= 5.0)).all()

    def test_violating_weight_rejected_with_point(self):
        w = WeightFunction.oscillatory(1.0, 2.1)
        with pytest.raises(ValueError, match="violates"):
            make_psi(w)


class TestConvolution:
    def test_zero_density_gives_zero(self):
        zero = ScalarField(lambda z: np.zeros(np.shape(z)))
        potential = LogPotential(zero, support_radius=2.0, resolution=64)
        assert potential.n_modes == potential.n_columns == 1
        for z in (0.0, 1.0 + 2.0j, 7.0):
            assert potential(z) == 0.0

    def test_poisson_equation(self, gauss1):
        # lap(Phi) = psi at interior points, via the fd oracle
        potential = make_psi(gauss1, resolution=256)
        pts = random_disk_points(20, 0.9, seed=21)
        resid = np.abs(fd_laplacian(potential, pts, 1e-2) - potential.psi(pts))
        assert resid.max() < 1e-3

    def test_origin_lower_bound(self, gauss1):
        assert make_psi(gauss1, resolution=256)(0.0) >= -1.0  # -M/4 with M = 4

    def test_harmonic_far_from_support(self, gauss1):
        potential = make_psi(gauss1, resolution=256)
        for z in (4.5, 4.0 + 3.0j, -6.0 + 0.5j):
            assert abs(fd_laplacian(potential, z, 1e-2)) < 1e-3

    def test_far_field_log_asymptotics(self, gauss1):
        # Phi(z) ~ (total mass / 2 pi) log|z| far from the support
        potential = make_psi(gauss1)
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

    @pytest.mark.parametrize("w", [
        WeightFunction.gaussian(1.0),
        WeightFunction.potential_defined(1.0),
    ], ids=["gaussian", "potential_defined"])
    def test_agrees_with_2d_engine(self, w):
        potential = make_psi(w)
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
        # the weight builds its own potential on the first evaluation of phi,
        # and only then: its Laplacian and bounds are closed forms
        built = []

        class Recorded(LogPotential):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(weights, "LogPotential", Recorded)
        w = WeightFunction.potential_defined(1.0, psi_height=2.0)
        w.laplacian(0.3)
        assert w.laplacian_bounds == (4.0, 6.0)
        assert built == []
        w.weight(0.3)
        w.weight(np.array([0.1, 0.5j]))
        assert [p.n_modes for p in built] == [1]

    def test_builds_no_2d_rule(self, gauss1, monkeypatch):
        def no_rule(*args, **kwargs):
            raise AssertionError("the potential built a 2-D rule")
        monkeypatch.setattr(quadrature, "_disk", no_rule)
        zs = random_disk_points(50, 3.0, seed=4)
        assert np.all(np.isfinite(make_psi(gauss1)(zs)))
        assert np.all(np.isfinite(WeightFunction.potential_defined(1.0).weight(zs)))
        assert np.all(np.isfinite(make_psi(WeightFunction.oscillatory(1.0, 0.5))(zs)))

    def test_widened_bounds_keep_the_radial_path(self, gauss1):
        # radiality is measured from psi, not read from the declared range:
        # a gaussian declared with [0, 10] still keeps one mode
        wide = WeightFunction.from_json(
            {"family": "gaussian", "params": {"t": 1}, "laplacian_bounds": [0, 10]})
        zs = np.concatenate([random_disk_points(50, 3.0, seed=4), [0.3 + 0.1j]])
        expected = make_psi(gauss1)(zs)
        widened = make_psi(wide)
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

    @pytest.mark.parametrize("k, part, z", [
        # at 16 angles mode 12 folds onto mode 4, with modes 5..8 at rounding
        (12, np.real, 0.5),
        # Im(z^8) vanishes at all 16 angles 2 pi j / 16
        (8, np.imag, 0.5 * np.exp(1j * math.pi / 16)),
    ], ids=["re_z12", "im_z8"])
    def test_mode_that_aliases_at_the_first_angle_count(self, k, part, z):
        # psi = g(s) s^k cos(k theta) (or sin), so at |z| = 0.5, where that
        # trigonometric factor is 1, Phi = -(1/2k) int_0^2 s^(k+1) g(s) rho^k ds
        # with rho = min(0.5, s) / max(0.5, s): Gauss-Legendre on each piece
        # where the integrand is smooth
        exact = 0.0
        for a, b in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0)):
            x, w = leggauss(64)
            s = 0.5 * (b - a) * x + 0.5 * (a + b)
            rho = np.minimum(0.5, s) / np.maximum(0.5, s)
            exact -= 0.5 * (b - a) * np.sum(w * s ** (k + 1) * cutoff_g(s) * rho ** k) / (2 * k)
        potential = LogPotential(ScalarField(lambda z: cutoff_g(z) * part(z ** k)), 2.0, 64)
        assert potential.n_theta >= 32 and potential.n_modes == k + 1
        assert abs(potential(z) - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("w", [
        WeightFunction.oscillatory(1.0, 0.5),
        translate_weight(WeightFunction.potential_defined(1.0), 0.5),
    ], ids=["oscillatory", "translated_bump"])
    def test_agrees_with_2d_oracle(self, w):
        potential = make_psi(w)
        assert potential.n_modes > 1
        zs = stencil_points()
        planar = PlanarLogPotential(potential.psi, support_radius=2.0, resolution=256)
        assert np.max(np.abs(potential(zs) - planar(zs))) < 1e-7

    def test_mode_count_follows_the_samples(self):
        # the oscillatory psi needs few angles, the translated bump many, and
        # its trailing modes below the tail limit are cut; a constant
        # Laplacian keeps one mode about every centre
        assert make_psi(WeightFunction.oscillatory(1.0, 0.5)).n_theta <= 128
        bump = make_psi(translate_weight(WeightFunction.potential_defined(1.0), 0.5))
        assert bump.n_theta >= 512
        assert bump.n_modes < bump.n_theta // 4 + 1
        # translated along the real axis, the bump is mirror-symmetric: no
        # imaginary part is live, and real parts are up to the last kept mode
        # (at 129 rings the real part of mode 186 stays at the tail limit)
        assert np.all(bump._columns % 2 == 0)
        assert bump._columns[-1] == 2 * (bump.n_modes - 1)
        assert make_psi(translate_weight(WeightFunction.gaussian(1.0), 0.5)).n_modes == 1
        harmonic = WeightFunction.gaussian_harmonic(1.0, b=0.3, c=0.2j)
        assert make_psi(harmonic).n_modes == 1

    @pytest.mark.parametrize("w, radial", [(WeightFunction.gaussian(1.0), True),
                                           (WeightFunction.oscillatory(1.0, 0.5), False)])
    def test_points_keep_their_shape(self, w, radial):
        # the radial branch and the multi-mode branch, on a grid inside and
        # outside the support: bit-identical to the raveled call
        potential = make_psi(w, resolution=32)
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
BRANCHES = pytest.mark.parametrize("w", [
    WeightFunction.gaussian(1.0),
    WeightFunction.oscillatory(1.0, 0.5),
], ids=["gaussian", "oscillatory"])


class TestBlockedEvaluation:
    """Phi_k between the rings, block by block on the real table of the live
    columns, against the dense barycentric product it replaced."""

    @BRANCHES
    def test_nan_point_gives_nan(self, w):
        potential = make_psi(w, resolution=64)
        zs = np.array([0.3 + 0.1j, np.nan, 1.5j, complex(np.nan, 1.0), 2.5])
        potential(zs[:1])  # an earlier evaluation leaves its memory behind
        out = potential(zs)
        assert np.array_equal(np.isnan(out), np.isnan(zs))
        assert np.isnan(potential(complex(np.nan)))
        finite = ~np.isnan(zs)
        assert np.max(np.abs(out[finite] - potential(zs[finite]))) <= 1e-15

    @pytest.mark.parametrize("make, expected", [
        (lambda: LogPotential(ScalarField(lambda z: np.ones(np.shape(z))), 1.0, 32), math.inf),
        (lambda: LogPotential(ScalarField(lambda z: np.zeros(np.shape(z))), 1.0, 32), 0.0),
        (lambda: make_psi(WeightFunction.oscillatory(1.0, 0.5), resolution=32), math.inf),
    ], ids=["unit_disk", "zero", "oscillatory"])
    def test_points_at_infinity(self, make, expected):
        # mode 0 is log(r) times the mass / 2 pi: +inf for a positive mass,
        # 0 for psi = 0 (not inf * 0); the other modes vanish; no warning
        potential = make()
        zs = np.array([math.inf, -math.inf, complex(math.inf, math.inf)])
        assert potential.values(zs).tolist() == [expected] * 3
        assert potential(complex(math.inf, math.inf)) == expected

    def test_resummation_against_direct_sum(self):
        # Horner's rule in e^{i theta} over the live modes 0, 4, 8, ...
        # against one exponential per (point, column)
        potential = make_psi(WeightFunction.oscillatory(1.0, 0.5), resolution=64)
        assert potential.n_columns > 2 and np.all(np.diff(potential._k) == 4)
        zs = np.append(random_disk_points(300, 2.5, seed=3), 0.0)
        m = np.stack([potential._modes_at(np.array([r]))[0] for r in np.abs(zs)])
        turn = np.exp(1j * np.angle(zs)[:, None] * potential._k[1:])
        turn *= np.where(potential._columns[1:] % 2, 1j, 1.0)  # column 2k + 1: Im Phi_k
        direct = m[:, 0] + 2.0 * np.sum(m[:, 1:] * turn, axis=1).real
        assert np.max(np.abs(potential.values(zs) - direct)) <= 1e-14

    @BRANCHES
    def test_scalar_gives_a_float(self, w):
        potential = make_psi(w, resolution=32)
        for f in (potential, potential.values):
            assert type(f(0.5 + 0.25j)) is float
            assert f(0.5 + 0.25j) == f(np.array([0.5 + 0.25j]))[0]

    @BRANCHES
    def test_memory(self, w):
        # one dense (5000 x 256) interpolation matrix and its complex copy
        # take 25-27 MB here
        potential = make_psi(w, resolution=256)
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
    def test_block_edges_against_dense_oracle(self, w, offset, monkeypatch):
        potential = make_psi(w, resolution=64)
        monkeypatch.setattr(greens, "_BLOCK_ENTRIES", 5 * potential._rings.shape[1])
        rng = np.random.default_rng(offset + 2)
        # one piece alone, then every piece and the multipole range at once
        for lo, hi in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.5)):
            count = 5 * (3 if hi > 2.0 else 1) + offset
            r = np.sort(rng.uniform(lo, hi, count))
            got = potential._modes_at(r)
            assert np.max(np.abs(got - dense_modes_at(potential, r))) <= 1e-14

    @BRANCHES
    def test_rings_give_table_rows(self, w, monkeypatch):
        # every ring, the piece ends 0, 1 and 2 included, is an exact hit
        potential = make_psi(w, resolution=64)
        monkeypatch.setattr(greens, "_BLOCK_ENTRIES", 7 * potential._rings.shape[1])
        r = potential._rings.ravel()
        rows = potential._table.reshape(-1, potential.n_columns)
        r, first = np.unique(r, return_index=True)
        assert r[0] == 0.0 and 1.0 in r and r[-1] == 2.0
        got = potential._modes_at(r)
        assert np.array_equal(got, rows[first])
        assert np.max(np.abs(got - dense_modes_at(potential, r))) <= 1e-14


# one weight per family of the weights table
FAMILY_EXAMPLES = {
    "gaussian": WeightFunction.gaussian(1.0),
    "gaussian_harmonic": WeightFunction.gaussian_harmonic(1.0, b=0.3, c=0.2j, d=0.1),
    "oscillatory": WeightFunction.oscillatory(1.5, 1.0),
    "potential_defined": WeightFunction.potential_defined(1.0),
}


# the families of the gap-rule oracle test
GAP_FAMILIES = {
    "gaussian": WeightFunction.gaussian(1.0),
    "oscillatory_0.5": WeightFunction.oscillatory(1.0, 0.5),
    "oscillatory_2": WeightFunction.oscillatory(1.0, 2.0),
    "potential_defined": WeightFunction.potential_defined(1.0),
    "translated_bump": translate_weight(WeightFunction.potential_defined(1.0), 0.5),
}


# the potential experiment's densities at which the ladder stops at 65 rings,
# and the potential_defined weight's own bump
LADDER_DENSITIES = {
    **{name: potential_mod._cutoff_density(w) for name, w in (
        ("gaussian", WeightFunction.gaussian(1.0)),
        ("gaussian_harmonic", WeightFunction.gaussian_harmonic(1.0, b=0.3)),
        ("oscillatory_0.5", WeightFunction.oscillatory(1.0, 0.5)),
        ("oscillatory_2", WeightFunction.oscillatory(1.0, 2.0)),
        ("potential_defined", WeightFunction.potential_defined(1.0)))},
    "bump": ScalarField(cutoff_g),
}
# its seams |z + 0.5| = 1 and 2 cross the rings, and it has 185 to 188 live columns
TRANSLATED_BUMP = potential_mod._cutoff_density(
    translate_weight(WeightFunction.potential_defined(1.0), 0.5))


class TestRingLadder:
    """The nested ring levels of LogPotential: 2^k + 1 rings per piece from
    greens.FIRST_RINGS, psi sampled only at each level's new rings, and the
    stop at the first level whose change is at most greens.LEVEL_TOL."""

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 2.0), (0.0, 0.25), (0.3, 1.7)])
    @pytest.mark.parametrize("n", [33, 65, 129, 257])
    def test_levels_nest_bit_for_bit(self, a, b, n):
        knots = np.array([a, b])
        coarse = greens._piece_rule(knots, n)[0]
        assert np.array_equal(greens._piece_rule(knots, 2 * n - 1)[0][:, ::2], coarse)

    @pytest.mark.parametrize("resolution, top", [
        (8, 33), (32, 33), (33, 33), (34, 65), (64, 65), (65, 65), (66, 129),
        (256, 257), (320, 513), (1025, 1025),
    ])
    def test_no_level_exceeds_the_rounded_cap(self, resolution, top, monkeypatch):
        levels = greens._ring_levels(resolution)
        assert levels[0] == greens.FIRST_RINGS and levels[-1] == top
        assert all(fine == 2 * coarse - 1 for coarse, fine in zip(levels, levels[1:]))
        # with no level converged, the ladder runs to the rounded cap; one
        # level reports no change
        monkeypatch.setattr(greens, "LEVEL_TOL", -1.0)
        psi = LADDER_DENSITIES["oscillatory_0.5"]
        potential = LogPotential(psi, support_radius=2.0, resolution=resolution)
        assert potential.rings == tuple(levels[-2:])
        assert potential._rings.shape == (2, top)
        assert (potential.level_change is None) == (top == greens.FIRST_RINGS)

    def test_psi_sampled_only_at_the_new_rings(self):
        # a radial psi at 32 angles: 33 + 32 rings on each of the two pieces
        psi, sizes = LADDER_DENSITIES["potential_defined"], []
        counting = ScalarField(lambda z: (sizes.append(np.size(z)), psi(z))[1])
        potential = LogPotential(counting, 2.0, resolution=256)
        assert potential.rings == (33, 65) and potential.n_theta == 32
        assert sum(sizes) == 2 * 65 * 32

    @pytest.mark.parametrize("name", sorted(LADDER_DENSITIES))
    def test_stops_at_65_rings(self, name):
        potential = LogPotential(LADDER_DENSITIES[name], 2.0, resolution=weights.POTENTIAL_RESOLUTION)
        assert potential.rings == (33, 65)
        assert potential.level_change <= greens.LEVEL_TOL / 10

    def test_columns_that_add_up_climb_further(self):
        # 33 -> 65 rings change the translated bump's largest column by
        # 3.1e-10, below LEVEL_TOL, but the bound on Phi over its 185 live
        # columns by 3.5e-9: it stops at 129 rings
        potential = LogPotential(TRANSLATED_BUMP, 2.0, resolution=weights.POTENTIAL_RESOLUTION)
        assert potential.rings == (65, 129)
        assert potential.level_change <= greens.LEVEL_TOL

    def test_modes_and_columns_from_every_ring(self):
        # the finer levels' rings add live columns to the first level's 185
        potential = LogPotential(TRANSLATED_BUMP, 2.0, resolution=256)
        with fixed_rings():
            first = LogPotential(TRANSLATED_BUMP, 2.0, resolution=33)
            fixed = LogPotential(TRANSLATED_BUMP, 2.0, resolution=129)
        assert potential.n_columns == 187 > first.n_columns
        assert potential._columns.tolist() == fixed._columns.tolist()
        assert (potential.n_theta, potential.n_modes) == (fixed.n_theta, fixed.n_modes)

    def test_new_rings_that_need_more_angles(self):
        # psi = g + Re(z^12) (1 - s)^2 sin^2(32 phi) on s <= 1, phi the ring
        # angle of s: radial at the 33 rings of [0, 1], where sin(32 phi)
        # vanishes, so the first level takes 32 angles and one mode; at 65
        # rings mode 12 lies in the top half of 32 angles, and the tail rule
        # runs again on every ring; 129 rings interpolate psi_12 exactly
        def f(z):
            z = np.asarray(z, dtype=complex)
            s = np.abs(z)
            phi = np.arccos(np.clip(1.0 - 2.0 * s, -1.0, 1.0))
            wave = np.real(z ** 12) * (1.0 - s) ** 2 * np.sin(32.0 * phi) ** 2
            return cutoff_g(z) + np.where(s <= 1.0, wave, 0.0)

        psi = ScalarField(f)
        with fixed_rings():
            first = LogPotential(psi, 2.0, resolution=33)
            expected = LogPotential(psi, 2.0, resolution=1025)
        assert (first.n_theta, first.n_modes) == (32, 1)
        potential = LogPotential(psi, 2.0, resolution=513)
        assert potential.rings == (129, 257)
        assert (potential.n_theta, potential.n_modes) == (64, 13)
        assert potential._columns.tolist() == [0, 24]
        zs = np.concatenate([random_disk_points(200, 3.0, seed=3), [0.0, 0.7, 0.5j]])
        assert np.max(np.abs(potential(zs) - expected(zs))) <= 1e-13 * np.max(np.abs(expected(zs)))

    @pytest.mark.parametrize("name", sorted([*LADDER_DENSITIES, "translated_bump"]))
    def test_within_rounding_of_1025_rings(self, name):
        psi = {**LADDER_DENSITIES, "translated_bump": TRANSLATED_BUMP}[name]
        zs = np.append(weights.stencil_points(random_disk_points(200, 0.98, 1), 1e-2), 0.0)
        with fixed_rings():
            expected = LogPotential(psi, 2.0, resolution=1025)(zs)
        got = LogPotential(psi, 2.0, resolution=256)(zs)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestSetUpOracles:
    """The set-up's inverse real FFTs and blocked scan against the complex
    inverse FFTs and the ring-by-ring loops they replaced, and its gap rule
    against the Gauss-Legendre one it replaced, on one level of a fixed
    ring count."""

    @pytest.mark.parametrize("resolution, tol", [
        # far from converged, where the two rules differ by their own errors
        (9, 1e-11), (17, 1e-11), (33, 1e-11),
        (64, 5e-15), (128, 5e-15), (256, 5e-15), (512, 5e-15),
    ])
    @pytest.mark.parametrize("family", sorted(GAP_FAMILIES))
    def test_gap_rule_matches_gauss_legendre(self, family, resolution, tol, monkeypatch):
        w = GAP_FAMILIES[family]
        zs = weights.stencil_points(random_disk_points(200, 0.98, 1), 1e-2)
        with fixed_rings():
            got = make_psi(w, resolution)(zs)
            monkeypatch.setattr(greens, "_piece_rule", gl_piece_rule)
            assert np.max(np.abs(got - make_psi(w, resolution)(zs))) <= tol

    @pytest.mark.parametrize("columns", [2, 34])
    @pytest.mark.parametrize("n", [8, 9, 64, 256, 320])
    def test_gap_values_match_complex_ifft(self, n, columns):
        # two pieces at once, as the set-up takes them, and one on its own;
        # at 34 columns the offsets go in blocks of _BLOCK_ENTRIES
        _, _, _, shift = greens._piece_rule(np.array([0.0, 1.0, 2.0]), n)
        values = np.random.default_rng(n + columns).standard_normal((2, n, columns))
        got = greens._at_gaps(values, shift)
        assert got.shape == (greens.GAP_NODES, 2, columns, n - 1)
        assert np.array_equal(greens._at_gaps(values[1], shift), got[:, 1])
        for piece in range(2):
            expected = ifft_at_gaps(values[piece], shift)
            scale = np.max(np.abs(expected), axis=(0, 2))
            error = np.max(np.abs(got[:, piece] - expected), axis=(0, 2))
            assert np.all(error <= 1e-14 * scale)

    @settings(deadline=None, max_examples=40)
    @given(G=st.integers(1, 700), K=st.integers(1, 250), seed=st.integers(0, 2 ** 32 - 1))
    def test_ring_sums_match_sequential_loops(self, G, K, seed):
        # ascending rings from an exact 0 (decay 0); radii spread over decades
        # make high powers of the decay underflow; the K columns carry mode 0
        # and ascending modes up to 249 with gaps and repeats (a mode whose
        # real and imaginary parts are both live)
        rng = np.random.default_rng(seed)
        r = np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(-4.0, 0.5, G))])
        k = np.concatenate([[0], np.sort(rng.integers(1, 250, K - 1))])
        inner, outer = (rng.standard_normal((G, K)) for _ in range(2))
        for got, expected in zip(greens._ring_sums(r, k, inner, outer),
                                 sequential_ring_sums(r, k, inner, outer)):
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@st.composite
def trig_densities(draw):
    """psi = cutoff_g (c0 + sum_j a_j r^k_j cos(k_j theta + p_j)) with a
    k-fold symmetric, a mirror-symmetric (p_j a multiple of pi / 2) or a
    general set of modes, and the live columns it must give: 0, and 2k + 1
    and 2k for the nonzero sine and cosine parts of each mode.  The modes
    stop at 7, which 16 angles resolve without aliasing; a_j carries 2^-k_j,
    so each term is at most 1 on the support."""
    kind = draw(st.sampled_from(["k_fold", "mirror", "neither"]))
    if kind == "k_fold":
        fold = draw(st.integers(2, 3))
        ks = draw(st.sets(st.integers(1, 7 // fold), min_size=1, max_size=3))
        ks = {fold * j for j in ks}
    else:
        ks = draw(st.sets(st.integers(1, 7), min_size=1, max_size=3))
    ks = sorted(ks)
    quarter = st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    if kind == "mirror":
        phases = [draw(quarter) for _ in ks]
    else:  # at least 0.2 from every multiple of pi / 2: both parts nonzero
        phases = [draw(quarter) + draw(st.floats(0.2, 0.5 * math.pi - 0.2)) for _ in ks]
    amps = [draw(st.floats(0.1, 1.0)) * 0.5 ** k for k in ks]
    c0 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))

    def psi(z):
        z = np.asarray(z, dtype=complex)
        trig = sum(a * np.real(np.exp(1j * p) * z ** k) for k, p, a in zip(ks, phases, amps))
        return cutoff_g(z) * (c0 + trig)

    live = [0]
    for k, p in zip(ks, phases):
        if abs(math.cos(p)) > 1e-3:
            live.append(2 * k)
        if abs(math.sin(p)) > 1e-3:
            live.append(2 * k + 1)
    return ScalarField(psi), live, ks[-1]


class TestLiveColumns:
    """The live real columns of psi_k, and Phi from them against every mode
    of the tail rule."""

    @pytest.mark.parametrize("w, columns, n_modes", [
        (WeightFunction.gaussian(1.0), [0], 1),
        # four-fold and mirror symmetry: the real parts of modes 0, 4, ..., 16
        (WeightFunction.oscillatory(1.0, 0.5), [0, 8, 16, 24, 32], 17),
    ], ids=["gaussian", "oscillatory"])
    def test_benchmark_densities(self, w, columns, n_modes):
        potential = make_psi(w, resolution=256)
        assert potential._columns.tolist() == columns
        assert (potential.n_columns, potential.n_modes) == (len(columns), n_modes)

    @settings(deadline=None, max_examples=40)
    @given(density=trig_densities(), seed=st.integers(0, 2 ** 16))
    def test_against_every_mode(self, density, seed):
        psi, live, top = density
        with fixed_rings():
            potential = LogPotential(psi, support_radius=2.0, resolution=64)
        assert potential._columns.tolist() == live
        assert potential.n_modes == top + 1
        # inside and outside the support, the origin, the seams and the rings
        zs = np.concatenate([random_disk_points(200, 3.0, seed=seed),
                             [0.0, 1.0, 2.0j, 2.5, np.exp(0.3j) * potential._rings[1, 5]]])
        expected = AllModesLogPotential(psi, support_radius=2.0, resolution=64)(zs)
        assert np.max(np.abs(potential(zs) - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestPhiAtOrigin:
    """Phi(0) from the circle means, against the whole potential at resolution 256."""

    @staticmethod
    def whole(w):
        return make_psi(w, resolution=256)(0.0 + 0.0j)

    def test_every_family_is_listed(self):
        assert set(FAMILY_EXAMPLES) == set(weights._FAMILIES)

    @pytest.mark.parametrize("w", [
        *FAMILY_EXAMPLES.values(),
        translate_weight(WeightFunction.potential_defined(1.0), 0.5),
        WeightFunction.oscillatory(1.0, 0.5),
    ], ids=[*FAMILY_EXAMPLES, "translated_bump", "oscillatory_1_0.5"])
    def test_agrees_with_whole_potential(self, w):
        assert abs(phi_at_origin(w) - self.whole(w)) < 1e-13

    @settings(deadline=None, max_examples=15)
    @given(a=st.floats(0.5, 2.0), ratio=st.floats(0.0, 1.0),
           shift=st.complex_numbers(max_magnitude=1.0))
    def test_oscillatory_hypothesis(self, a, ratio, shift):
        # eps <= 2a keeps lap(phi) = 4a - 2 eps cos(x) cos(y) >= 0, about any centre
        w = translate_weight(WeightFunction.oscillatory(a, 2.0 * a * ratio), shift)
        assert abs(phi_at_origin(w) - self.whole(w)) < 1e-13

    @settings(deadline=None, max_examples=15)
    @given(t=st.floats(0.5, 2.0), modulus=st.floats(0.0, 1.5),
           arg=st.floats(0.0, 2.0 * math.pi))
    def test_translated_gaussian_hypothesis(self, t, modulus, arg):
        z0 = modulus * complex(math.cos(arg), math.sin(arg))
        w = translate_weight(WeightFunction.gaussian(t), z0)
        assert abs(phi_at_origin(w) - self.whole(w)) < 1e-13

    @pytest.mark.parametrize("w", [
        WeightFunction.gaussian(1.0),
        WeightFunction.oscillatory(1.0, 0.5),
        WeightFunction.potential_defined(1.0),
    ], ids=["gaussian", "oscillatory", "potential_defined"])
    def test_agrees_with_512_gauss_legendre_nodes(self, w):
        # the same circle means summed with 512 Gauss-Legendre nodes per piece
        x, gw = gauss_legendre(512)
        u = 0.5 * (x + 1.0)
        a, h = np.array([[0.0], [1.0]]), np.ones((2, 1))
        s = a + h * u * u
        _, modes = greens.angular_modes(potential_mod._cutoff_density(w), s)
        reference = float(np.sum(h * u * gw * s * np.log(s) * modes[..., 0].real))
        assert abs(phi_at_origin(w) - reference) <= 1e-15

    @pytest.mark.parametrize("w", [
        translate_weight(WeightFunction.potential_defined(1.0), 0.5),
        WeightFunction.oscillatory(1.0, 0.5),
        WeightFunction.gaussian(1.0),
    ], ids=["translated_bump", "oscillatory", "gaussian"])
    def test_doubling_the_radial_nodes(self, w, monkeypatch):
        base = phi_at_origin(w)
        monkeypatch.setattr(potential_mod, "ORIGIN_INTERVALS", 2 * potential_mod.ORIGIN_INTERVALS)
        # past the cache, which holds base for w
        assert abs(phi_at_origin.__wrapped__(w) - base) < 1e-14

    def test_tail_rule_samples_only_the_new_angles(self):
        # 256 rings at 32 + 32 angles, not 32 + 64: each doubling samples
        # psi at the new odd angles and keeps the earlier samples
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
        # lap(phi) = 4 - 4.2 cos(x) cos(y) is -0.2 at the origin, 8.2 at its peak
        with pytest.raises(ValueError, match=r"violates 0 <= lap\(phi\) <= 8.2 at z = 0j"):
            phi_at_origin(WeightFunction.oscillatory(1.0, 2.1))

    def test_computed_once_per_weight(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        value = phi_at_origin(w)
        assert phi_at_origin(WeightFunction.from_json(w.to_json())) == value
        assert phi_at_origin.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_violating_weight_raises_on_every_call(self):
        # lap(phi) = 4 - 6 cos(x) cos(y) is -2 at the origin; errors are not cached
        w = WeightFunction.oscillatory(1.0, 3.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="violates"):
                phi_at_origin(w)


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
        potential = make_psi(gauss1, resolution=256)
        grid = random_disk_points(60, 0.95, seed=5)
        report, _ = verify_potential_bounds(potential, 4.0, grid, tol=1e-3)
        assert report.passed

    def test_oscillatory_passes(self):
        w = WeightFunction.oscillatory(1.0, 0.5)
        potential = make_psi(w, resolution=256)
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
        potential = make_psi(gauss1)
        with pytest.raises(ValueError):
            verify_potential_bounds(potential, 4.0, [1.5 + 0.0j], tol=1e-3)
