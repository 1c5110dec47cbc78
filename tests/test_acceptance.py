"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from holobound import (
    WeightFunction,
    build_equivalence_map,
    build_kernel_estimate,
    compute_B,
    disk_rule,
    global_certificate,
    integrate,
    log_laplacian_equal,
    make_psi,
    mean_value_check,
    normalized_gaussian,
    truncated_plane_rule,
    truncation_radius,
)
from holobound.cli import main as cli_main
from holobound.equivalence import EquivalenceError
from holobound.potential import B_BRACKET, B_EXACT
from holobound.quadrature import disk_lattice, random_disk_points
from oracles import verify_kernel_invariance, verify_unitary

INV_PI = 1.0 / math.pi


def report(number, ok, description):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {description}")
    return ok


@pytest.fixture(scope="module")
def oscillatory_potential():
    w = WeightFunction.oscillatory(1.0, 0.5)
    return make_psi(w, resolution=256)


def test_criterion_01_fundamental_integral():
    rule = disk_rule(0.0, 1.0, 64, 128)
    value = integrate(rule, lambda z: np.log(np.abs(z)) / (2 * np.pi))
    ok = abs(value + 0.25) <= 1e-6
    assert report(1, ok, f"log-potential integral {value:+.9f} vs -1/4 (tol 1e-6)")


def test_criterion_02_normalized_gaussian_exactness():
    w = normalized_gaussian(1.0)
    est = build_kernel_estimate(w, 40, truncated_plane_rule(10.0, 256, 512))
    worst = 0.0
    for z in (0.0, 0.5, 1.0, 1.0 + 1.0j, 1.5):
        expected = math.exp(abs(z) ** 2)
        rel = abs(est.diag(z) - expected) / expected
        worst = max(worst, rel)
    ok = worst <= 1e-6
    assert report(2, ok, f"kernel diagonal vs exp(|z|^2), worst rel err {worst:.2e} (tol 1e-6)")


def test_criterion_03_constant_laplacian_flatness():
    w = WeightFunction.gaussian_harmonic(1.0, b=0.3)
    grid = disk_lattice(1.5, 0.1)
    rule = truncated_plane_rule(truncation_radius(w, 40), 256, 512)
    est = build_kernel_estimate(w, 40, rule)
    products = est.diag(grid) * np.exp(-np.asarray(w.weight(grid)))
    worst = float(np.max(np.abs(products - INV_PI))) * math.pi
    ok = worst <= 1e-3
    assert report(3, ok, f"weighted diagonal flat at 1/pi over D(0,1.5), "
                         f"worst rel dev {worst:.2e} (tol 1e-3)")


def test_criterion_04_poisson_residual(oscillatory_potential):
    potential, M = oscillatory_potential, 5.0
    pts = random_disk_points(50, 0.9, seed=404)
    h = 1e-2
    stencil = np.concatenate([pts, pts + h, pts - h, pts + 1j * h, pts - 1j * h])
    vals = potential(stencil)
    n = len(pts)
    fd = (vals[n:2 * n] + vals[2 * n:3 * n] + vals[3 * n:4 * n]
          + vals[4 * n:5 * n] - 4 * vals[:n]) / h ** 2
    resid = float(np.max(np.abs(fd - potential.psi(pts))))
    budget = 5e-3 * (1.0 + M)
    ok = resid <= budget
    assert report(4, ok, f"poisson residual {resid:.2e} <= {budget:.2e} at resolution 256")


def test_criterion_05_potential_constants(oscillatory_potential):
    B_oracle = compute_B()
    ok = B_EXACT <= B_oracle <= B_EXACT + 1e-6
    ok = ok and B_BRACKET[0] <= B_oracle <= B_BRACKET[1]
    drift = abs(B_oracle - compute_B(64, 48))
    ok = ok and drift < 1e-3
    grid = random_disk_points(200, 0.98, seed=505)
    families = [
        (make_psi(WeightFunction.gaussian(1.0), resolution=256), 4.0),
        (make_psi(WeightFunction.gaussian_harmonic(1.0, b=0.3), resolution=256), 4.0),
        (oscillatory_potential, 5.0),
        (make_psi(WeightFunction.potential_defined(1.0), resolution=256), 5.0),
    ]
    worst_upper, worst_origin = -np.inf, np.inf
    for potential, M in families:
        margin = B_EXACT * M + 1e-3 - float(np.max(potential(grid)))
        worst_upper = max(worst_upper, -margin)
        phi0 = potential(0.0 + 0.0j)
        ok = ok and margin >= 0.0 and phi0 >= -M / 4.0 - 1e-4
        worst_origin = min(worst_origin, phi0 + M / 4.0)
    assert report(5, ok, f"B={B_EXACT:.6f} <= oracle {B_oracle:.9f} "
                         f"in {B_BRACKET[1]:.4f}-bracket, drift {drift:.1e}, "
                         f"phi<=BM+1e-3 (worst excess {worst_upper:.1e}), "
                         f"phi(0)+M/4 >= {worst_origin:.3f} >= -1e-4")


def test_criterion_06_global_certificates():
    cases = [
        (WeightFunction.gaussian(1.0), 256),
        (WeightFunction.gaussian_harmonic(1.0, b=0.3), 256),
        (WeightFunction.oscillatory(1.0, 0.5), 256),
        (WeightFunction.potential_defined(1.0), 128),
    ]
    grid = disk_lattice(2.0, 0.1)
    ok = True
    details = []
    for w, res in cases:
        rule = truncated_plane_rule(truncation_radius(w, 40), res, 2 * res)
        cert = global_certificate(w, grid, 40, rule)
        good = cert.passed and cert.margin > 3 * cert.error_estimate
        ok = ok and good
        details.append(f"{w.family}: sup {cert.measured_sup:.4f} <= C {cert.constant_C:.2f}")
    assert report(6, ok, "; ".join(details))


def test_criterion_07_sampled_function_oracle(gauss1):
    M = 4.0
    C = math.exp((B_EXACT + 0.25) * M) / math.pi
    rule = truncated_plane_rule(truncation_radius(gauss1, 10), 256, 512)
    est = build_kernel_estimate(gauss1, 10, rule)
    u = rule.weights * np.exp(-np.asarray(gauss1.weight(rule.nodes)))
    V = rule.nodes[:, None] ** np.arange(11)
    rng = np.random.default_rng(707)
    bound_violations = 0
    dominance_violations = 0
    for _ in range(500):
        deg = int(rng.integers(0, 11))
        coeffs = np.zeros(11, dtype=complex)
        coeffs[:deg + 1] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = complex(*rng.uniform(-np.sqrt(2), np.sqrt(2), 2))
        norm_sq = float(u @ np.abs(V @ coeffs) ** 2)
        f_z = abs(np.polyval(coeffs[::-1], z)) ** 2
        if f_z > C * math.exp(gauss1.weight(z)) * norm_sq:
            bound_violations += 1
        if f_z > est.diag(z) * norm_sq * (1 + 1e-8):
            dominance_violations += 1
    ok = bound_violations == 0 and dominance_violations == 0
    assert report(7, ok, f"500 random (f, z) trials: {bound_violations} bound violations, "
                         f"{dominance_violations} kernel-dominance violations")


def test_criterion_08_equivalence_suite():
    ok = True
    details = []
    for c in (1.0, 4.0, 10.0):
        a = c / 4.0
        w = WeightFunction.gaussian_harmonic(a, b=0.1 * a, c=0.2, d=0.1)
        target = normalized_gaussian(4.0 / c)
        emap = build_equivalence_map(w, target)
        radius = max(truncation_radius(w, 40), truncation_radius(target, 40))
        rule = truncated_plane_rule(radius, 256, 512)
        samples = [Polynomial([1.0]),
                   Polynomial([0.5, -1.0j, 0.25]),
                   Polynomial.basis(3)]
        unitary = verify_unitary(emap, samples, rule, tol=1e-5)
        invariance = verify_kernel_invariance(w, target, [0.0, 1.0, 1.0j],
                                              40, rule, tol=1e-4)
        ok = ok and unitary.passed and invariance.passed
        worst_u = max(ch.value for ch in unitary.checks)
        worst_i = max(ch.value for ch in invariance.checks)
        details.append(f"c={c:g}: unitary dev {worst_u:.1e}, invariance dev {worst_i:.1e}")
    # negative control: constant Laplacians 4 vs 8 are inequivalent
    a4 = WeightFunction.gaussian(1.0)
    a8 = WeightFunction.gaussian(0.5)
    grid = disk_lattice(1.0, 0.25)
    rejected = not log_laplacian_equal(a4, a8, grid, 1e-8)
    try:
        build_equivalence_map(a4, a8)
        rejected = False
    except EquivalenceError:
        pass
    ok = ok and rejected
    details.append(f"negative control rejected: {rejected}")
    assert report(8, ok, "; ".join(details))


def test_criterion_09_mean_value_property():
    samples = [Polynomial([1.0]),
               Polynomial.basis(1),
               Polynomial.basis(2),
               np.exp]
    worst = 0.0
    for s in (0.3, 0.9):
        for h in samples:
            rep = mean_value_check(h, s, tol=1e-8)
            worst = max(worst, rep.checks[0].value)
    ok = worst <= 1e-8
    assert report(9, ok, f"mean-value deviations, worst {worst:.2e} (tol 1e-8)")


def test_criterion_10_monotonicity(gauss1, gauss1_rule):
    rng = np.random.default_rng(1010)
    zs = rng.uniform(-1.5, 1.5, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    harmonic = WeightFunction.gaussian_harmonic(1.0, b=0.3)
    rule_h = truncated_plane_rule(truncation_radius(harmonic, 40), 256, 512)
    worst = -np.inf
    for w, rule in ((gauss1, gauss1_rule), (harmonic, rule_h)):
        est = build_kernel_estimate(w, 40, rule)
        prev = None
        for n in range(5, 41):
            vals = est.diag_at_degree(zs, n)
            if prev is not None:
                worst = max(worst, float(np.max(prev - vals)))
            prev = vals
    ok = worst <= 1e-10
    assert report(10, ok, f"K_N nondecreasing for N=5..40, worst decrease {worst:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    config = {
        "experiment": "verify-bound",
        "weight": {"family": "gaussian", "params": {"t": 1.0}},
        "seed": 11,
        "degree": 16,
        "resolution": 64,
        "grid": {"kind": "random", "radius": 1.5, "count": 50},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["verify-bound", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = cli_main(["verify-bound", "--config", str(cfg_path), "--out", str(out_b)])
    csv_a = (out_a / "verify-bound.csv").read_bytes()
    csv_b = (out_b / "verify-bound.csv").read_bytes()
    ok = code_a == code_b == 0 and csv_a == csv_b
    assert report(11, ok, f"two CLI runs byte-identical ({len(csv_a)} bytes of CSV)")
