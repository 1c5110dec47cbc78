"""Workload definitions: the configs each op runs and the check its output must pass.

Every workload is a fixed list of ops (one ``holobound`` CLI invocation each)
that a pass runs in order.  Configs are made from the workload seed, which
seeds every random grid; the program only ever sees the generated files.
Tolerances are the acceptance suite's.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# B's closed form 2 log 2 - 1/2 is the smallest sound value; the analytic
# bracket's upper end is 2 log 3
B_LOW = 2.0 * math.log(2.0) - 0.5
B_HIGH = 2.0 * math.log(3.0)
FLAT_TOL = 1e-3         # acceptance 03: pi K_N e^{-phi} = 1 on D(0, 1.5)
FLAT_RADIUS = 1.5
EXACT_TOL = 1e-6        # acceptance 02: normalized Gaussian K_N = exp(|z|^2)

EXIT_OK, EXIT_CONFIG = 0, 2

GAUSSIAN = {"family": "gaussian", "params": {"t": 1.0}}
HARMONIC = {"family": "gaussian_harmonic", "params": {"a": 1.0, "b_re": 0.3}}
NORMALIZED = {"family": "gaussian_harmonic", "params": {"a": 1.0, "d": math.log(math.pi)}}
OSCILLATORY = {"family": "oscillatory", "params": {"a": 1.0, "eps": 0.5}}
POTENTIAL_DEFINED = {"family": "potential_defined", "params": {"a": 1.0}}


@dataclass
class Op:
    """One CLI invocation of a pass and the outcome it must produce."""

    name: str
    experiment: str
    config: dict
    check: Optional[Callable] = None  # (Output) -> problems; for exit code 0
    expected_code: int = EXIT_OK


@dataclass
class Output:
    """What an op left in its output directory."""

    csv_bytes: bytes
    summary: dict

    def rows(self) -> list:
        text = self.csv_bytes.decode("utf-8")
        return list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))


def read_output(out_dir: Path, experiment: str) -> Output:
    """The op's CSV and summary; an unreadable summary reads as empty, so
    the check reports the keys it lacks."""
    csv_path = out_dir / f"{experiment}.csv"
    json_path = out_dir / f"{experiment}_summary.json"
    summary = {}
    if json_path.exists():
        try:
            summary = json.loads(json_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            pass
    return Output(csv_path.read_bytes() if csv_path.exists() else b"", summary)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _b_in_bracket(b) -> list:
    b = float(b)
    return [] if B_LOW <= b <= B_HIGH else [f"B_used {b!r} outside [{B_LOW}, {B_HIGH}]"]


def _check_rows(out: Output, count: int) -> list:
    n = len(out.rows())
    return [] if n == count else [f"{n} CSV rows, expected {count}"]


def check_certificate(count: int):
    def check(out: Output) -> list:
        problems = _check_rows(out, count) + _b_in_bracket(out.summary["B_used"])
        if out.summary.get("pass") is not True:
            problems.append("verify-bound summary does not pass")
        bad = [r for r in out.rows() if not float(r["margin"]) > 0.0]
        if bad:
            problems.append(f"{len(bad)} grid points with margin <= 0, first {bad[0]}")
        return problems
    return check


def check_diag(count: int, exact: bool = False, flat_phi=None):
    """``exact``: K_N must equal exp(|z|^2); ``flat_phi``: pi K_N e^{-phi}
    must be flat at 1 on D(0, 1.5)."""
    def check(out: Output) -> list:
        problems = _check_rows(out, count)
        worst = 0.0
        for r in out.rows():
            z = complex(float(r["z_re"]), float(r["z_im"]))
            k = float(r["K_N"])
            if not (math.isfinite(k) and k > 0.0):
                return problems + [f"K_N = {k!r} at {z}"]
            if exact:
                expected = math.exp(abs(z) ** 2)
                worst = max(worst, abs(k - expected) / expected)
            elif flat_phi is not None and abs(z) <= FLAT_RADIUS + 1e-12:
                worst = max(worst, abs(math.pi * k * math.exp(-flat_phi(z)) - 1.0))
        limit = EXACT_TOL if exact else FLAT_TOL
        if worst > limit:
            problems.append(f"relative deviation {worst:.3e} exceeds {limit:g}")
        return problems
    return check


def check_potential(count: int):
    def check(out: Output) -> list:
        problems = _check_rows(out, count) + _b_in_bracket(out.summary["B_used"])
        if out.summary.get("pass") is not True:
            problems.append("potential summary does not pass")
        return problems
    return check


def check_sweep(ok_entries: int, failing_label: str):
    def check(out: Output) -> list:
        rows = out.rows()
        problems = _check_rows(out, ok_entries + 1)
        for r in rows:
            if r["label"] == failing_label:
                if r["status"] != "error:ValueError":
                    problems.append(f"{failing_label}: status {r['status']!r}, "
                                    f"expected 'error:ValueError'")
            elif r["status"] != "ok" or r["pass"] != "true":
                problems.append(f"{r['label']}: status {r['status']}, pass {r['pass']}")
            else:
                problems += _b_in_bracket(r["B_used"])
        if out.summary.get("n_failed") != 1:
            problems.append(f"n_failed = {out.summary.get('n_failed')}, expected 1")
        return problems
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _phi_gaussian(z: complex) -> float:
    return abs(z) ** 2


def _phi_harmonic(z: complex) -> float:
    return abs(z) ** 2 + (0.3 * z * z).real


def certify(seed: int, tiny: bool = False) -> list:
    """verify-bound at N=40 on the four families of acceptance 06, plus one
    config whose declared Laplacian bounds are narrower than the family's,
    which must be rejected with exit code 2."""
    rng = random.Random(seed)
    degree, res, res_pd = (8, 32, 32) if tiny else (40, 256, 128)
    grid = {"kind": "lattice", "radius": 2.0, "spacing": 0.5 if tiny else 0.1}
    points = 49 if tiny else 1257
    ops = []
    for name, weight, r in (("gaussian", GAUSSIAN, res), ("harmonic", HARMONIC, res),
                            ("oscillatory", OSCILLATORY, res),
                            ("potential_defined", POTENTIAL_DEFINED, res_pd)):
        ops.append(Op(f"certify-{name}", "verify-bound",
                      {"experiment": "verify-bound", "weight": weight, "degree": degree,
                       "resolution": r, "grid": grid, "seed": rng.randrange(2 ** 32)},
                      check_certificate(points)))
    if tiny:
        ops = ops[:1]
    narrowed = dict(OSCILLATORY, laplacian_bounds=[3.5, 4.5])
    ops.append(Op("certify-narrowed-bounds", "verify-bound",
                  {"experiment": "verify-bound", "weight": narrowed, "degree": degree,
                   "resolution": res, "seed": rng.randrange(2 ** 32)},
                  expected_code=EXIT_CONFIG))
    return ops


def diag(seed: int, tiny: bool = False) -> list:
    """kernel-diag at N=40 on a 5025-point lattice; the Gram assembly at
    131k and 524k quadrature nodes is the only heavy work."""
    rng = random.Random(seed)
    degree = 8 if tiny else 40
    resolutions = (32,) if tiny else (256, 512)
    grid = {"kind": "lattice", "radius": 2.0, "spacing": 0.5 if tiny else 0.05}
    points = 49 if tiny else 5025
    families = (("gaussian", GAUSSIAN, check_diag(points, flat_phi=_phi_gaussian)),
                ("harmonic", HARMONIC, check_diag(points, flat_phi=_phi_harmonic)),
                ("normalized", NORMALIZED, check_diag(points, exact=True)),
                ("oscillatory", OSCILLATORY, check_diag(points)))
    if tiny:  # degree 8 is far from converged, so only positivity is checked
        families = tuple((n, w, check_diag(points)) for n, w, _ in families)
    return [Op(f"diag-{name}-{res}", "kernel-diag",
               {"experiment": "kernel-diag", "weight": weight, "degree": degree,
                "resolution": res, "grid": grid, "seed": rng.randrange(2 ** 32)}, check)
            for res in resolutions for name, weight, check in families]


def potential(seed: int, tiny: bool = False) -> list:
    """The potential experiment on 200 seeded random points (and their
    five-point stencils) for three families: the radial collapse (gaussian,
    potential_defined) and the 2-D engine (oscillatory).  Resolution 256 is
    the acceptance suite's; at 128 the Poisson check fails on some grids."""
    rng = random.Random(seed)
    count = 10 if tiny else 200
    families = (("gaussian", GAUSSIAN), ("oscillatory", OSCILLATORY),
                ("potential_defined", POTENTIAL_DEFINED))
    return [Op(f"potential-{name}", "potential",
               {"experiment": "potential", "weight": weight, "resolution": 256,
                "grid": {"kind": "random", "radius": 0.98, "count": count},
                "seed": rng.randrange(2 ** 32)}, check_potential(count))
            for name, weight in families[:1 if tiny else 3]]


def sweep(seed: int, tiny: bool = False) -> list:
    """One sweep of small verify-bound entries (closed-form families x
    N x resolution) plus one entry that violates 0 <= lap(phi)."""
    rng = random.Random(seed)
    degrees, resolutions = ((8,), (32,)) if tiny else ((8, 16, 24, 32), (32, 64, 96))
    entries = []
    for name, weight in (("gaussian", GAUSSIAN), ("harmonic", HARMONIC),
                         ("normalized", NORMALIZED)):
        for n in degrees:
            for res in resolutions:
                entries.append({"experiment": "verify-bound", "weight": weight,
                                "degree": n, "resolution": res,
                                "label": f"{name}-N{n}-r{res}",
                                "grid": {"kind": "random", "radius": 1.5, "count": 50},
                                "seed": rng.randrange(2 ** 32)})
    violating = "oscillatory-eps3"
    entries.append({"experiment": "verify-bound", "label": violating,
                    "weight": {"family": "oscillatory", "params": {"a": 1.0, "eps": 3.0}},
                    "degree": 8, "resolution": 32,
                    "grid": {"kind": "random", "radius": 1.5, "count": 50},
                    "seed": rng.randrange(2 ** 32)})
    return [Op("sweep", "sweep", {"experiment": "sweep", "configs": entries},
               check_sweep(len(entries) - 1, violating))]


WORKLOADS = {"certify": certify, "diag": diag, "potential": potential, "sweep": sweep}
