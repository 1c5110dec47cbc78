"""Batch experiment driver with machine-readable CSV/JSON outputs.

Every experiment is described by a JSON config; outputs are deterministic
given the config and its seed, except for a timestamp confined to the JSON
summary.  A float CSV cell is the shortest round-trip ``repr`` of its
double (``-0.0`` keeps its sign; ``nan``, ``inf`` and ``-inf`` for the
non-finite values), and a float array column formats each distinct value
once.  The CSV and the summary are written both or neither.  Exit codes:
0 success, 2 config error, 3 numeric failure, 4 certificate failure.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import equivalence as equiv_mod
from . import potential as potential_mod
from .kernel import (
    MAX_DEGREE,
    PositiveDefinitenessError,
    SampleFunction,
    build_kernel_estimate,
)
from .quadrature import (
    NonFiniteIntegrandError,
    disk_lattice,
    disk_rule,
    random_disk_points,
)
from .weights import WeightError, WeightFunction, is_number, truncation_radius

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run", "main"]

SCHEMA_VERSION = "v1"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATE = 4

# inclusive ranges of the integer settings a config or a flag may give
_RANGES = {"degree": (0, MAX_DEGREE), "resolution": (8, 4096), "seed": (0, 2 ** 64 - 1)}
_GRID_KEYS = {
    "lattice": {"kind", "radius", "spacing"},
    "random": {"kind", "radius", "count"},
    "points": {"kind", "points"},
}
# largest evaluation grid a config may ask for; a lattice counts the points
# of its square before the clip to the disk, which is what it allocates
MAX_GRID_POINTS = 10 ** 6
# a label prefixes output file names and fills a sweep CSV cell: no path
# separators, no commas
_LABEL = re.compile(r"[A-Za-z0-9._-]*")


class ConfigError(Exception):
    """Malformed experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    weight: dict | None = None
    weight_b: dict | None = None
    degree: int = 40
    resolution: int = 128
    grid: dict | None = None
    seed: int = 0
    tolerance: float | None = None
    s_values: tuple = (0.3, 0.9)
    label: str = ""
    configs: tuple = ()
    out: str = "."


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}


def _validate_grid(grid: dict) -> dict:
    if not isinstance(grid, dict):
        raise ConfigError(f"grid must be an object, got {type(grid).__name__}")
    kind = grid.get("kind")
    if kind not in _GRID_KEYS:
        raise ConfigError(f"unknown grid kind {kind!r}")
    unknown = set(grid) - _GRID_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    missing = _GRID_KEYS[kind] - set(grid)
    if missing:
        raise ConfigError(f"grid kind {kind!r} needs keys {sorted(missing)}")
    for key in ("radius", "spacing"):
        if key in grid and not is_number(grid[key], 0.0):
            raise ConfigError(f"grid {key} must be a positive finite number, "
                              f"got {grid[key]!r}")
    if "count" in grid and not (isinstance(grid["count"], int) and is_number(grid["count"], 0)):
        raise ConfigError(f"grid count must be a positive integer, got {grid['count']!r}")
    if kind == "points":
        pts = grid["points"]
        if not (isinstance(pts, list) and pts and all(
                isinstance(p, list) and len(p) == 2 and all(map(is_number, p)) for p in pts)):
            raise ConfigError("grid kind 'points' needs a nonempty list of "
                              "[x, y] pairs of finite numbers")
    size = _grid_size(grid)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"grid of {size} points exceeds the cap of {MAX_GRID_POINTS}")
    return grid


def _grid_size(grid: dict):
    """Points the grid allocates, computed before any array is built."""
    if grid["kind"] == "lattice":
        half = grid["radius"] / grid["spacing"] + 1e-12  # disk_lattice's tick count
        return (2 * math.floor(half) + 1) ** 2 if math.isfinite(half) else math.inf
    if grid["kind"] == "random":
        return grid["count"]
    return len(grid["points"])


def _in_range(key: str, value) -> int:
    """``value`` if it is an integer in the setting's inclusive range."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    lo, hi = _RANGES[key]
    if not (lo <= value <= hi):
        raise ConfigError(f"{key} must lie in [{lo}, {hi}], got {value}")
    return value


def parse_config(raw: dict, allow_sweep: bool = True) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"expected one of {', '.join(EXPERIMENTS)}")
    if experiment == "sweep" and not allow_sweep:
        raise ConfigError("sweep entries may not be nested sweeps")
    cfg = ExperimentConfig(experiment=experiment)
    for key in ("weight", "weight_b"):
        if key in raw:
            setattr(cfg, key, raw[key])
    for key in _RANGES:
        if key in raw:
            setattr(cfg, key, _in_range(key, raw[key]))
    if "grid" in raw:
        cfg.grid = _validate_grid(raw["grid"])
    if "tolerance" in raw:
        if not is_number(raw["tolerance"], 0.0):
            raise ConfigError(f"tolerance must be a positive finite number, "
                              f"got {raw['tolerance']!r}")
        cfg.tolerance = float(raw["tolerance"])
    if "s_values" in raw:
        s_values = raw["s_values"]
        if not (isinstance(s_values, list) and s_values
                and all(is_number(s, 0.0, 1.0) for s in s_values)):
            raise ConfigError(f"s_values must be a nonempty list of numbers in (0, 1), "
                              f"got {s_values!r}")
        cfg.s_values = tuple(float(s) for s in s_values)
    for key in ("label", "out"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a string, got {raw[key]!r}")
    if "label" in raw:
        cfg.label = raw["label"]
        if not _LABEL.fullmatch(cfg.label):
            raise ConfigError(f"label {cfg.label!r} may hold only letters, digits, "
                              f"'.', '_' and '-'")
    if "out" in raw:
        cfg.out = raw["out"]
    if "configs" in raw:
        if experiment != "sweep":
            raise ConfigError("'configs' is only valid for sweep")
        if not isinstance(raw["configs"], list):
            raise ConfigError(f"'configs' must be a list, got {raw['configs']!r}")
        cfg.configs = tuple(parse_config(entry, allow_sweep=False)
                            for entry in raw["configs"])
        kinds = {c.experiment for c in cfg.configs}
        if len(kinds) > 1:
            raise ConfigError(f"sweep entries must share one experiment type, "
                              f"got {sorted(kinds)}")
    if experiment == "sweep" and "configs" not in raw:
        raise ConfigError("sweep requires a 'configs' list")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _require_weight(cfg: ExperimentConfig, key: str = "weight") -> WeightFunction:
    desc = getattr(cfg, key)
    if desc is None:
        raise ConfigError(f"experiment {cfg.experiment!r} requires a {key!r} entry")
    try:
        return WeightFunction.from_json(desc)
    except WeightError as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


def _build_grid(cfg: ExperimentConfig, default: dict) -> np.ndarray:
    grid_spec = cfg.grid if cfg.grid is not None else default
    kind = grid_spec["kind"]
    if kind == "lattice":
        return disk_lattice(float(grid_spec["radius"]), float(grid_spec["spacing"]))
    if kind == "random":
        return random_disk_points(grid_spec["count"], float(grid_spec["radius"]), cfg.seed)
    return np.asarray([complex(p[0], p[1]) for p in grid_spec["points"]])


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _format_columns(columns) -> list:
    """Each column's cells as strings.  A float64 array formats each distinct
    value once, by ``repr`` of its Python float, and spreads the strings
    down the rows; its values are told apart by their bits, so ``-0.0``
    keeps its sign.  A list goes cell by cell through :func:`_fmt`, and a
    scalar is one string repeated down the rows."""
    n_rows = next((len(c) for c in columns if isinstance(c, (list, np.ndarray))), 0)
    out = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            cells = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            out.append(cells[inverse].tolist())
        elif isinstance(col, (list, np.ndarray)):
            out.append(map(_fmt, col))
        else:
            out.append(itertools.repeat(_fmt(col), n_rows))
    return out


@dataclass
class ExperimentResult:
    """An experiment's exit code, JSON summary and CSV columns.

    ``columns`` maps each CSV header name to its column: a float array, a
    list of cells, or one scalar that fills every row.
    """

    code: int
    summary: dict
    columns: dict

    def metric_row(self) -> dict:
        return {k: v for k, v in self.summary.items()
                if isinstance(v, (int, float, bool, str))}


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def _kernel_inputs(cfg: ExperimentConfig):
    """The weight, the grid and the kernel's rule.  A weight with offset z0
    is phi(z0 + .), with its mass at -z0: the rule is centred there, so a
    translated weight keeps its degree (the radius already adds |z0|)."""
    w = _require_weight(cfg)
    grid = _build_grid(cfg, {"kind": "lattice", "radius": 2.0, "spacing": 0.1})
    rule = disk_rule(-w.offset, truncation_radius(w, cfg.degree),
                     cfg.resolution, 2 * cfg.resolution)
    return w, grid, rule


def _run_diagonal(cfg: ExperimentConfig) -> ExperimentResult:
    w, grid, rule = _kernel_inputs(cfg)
    est = build_kernel_estimate(w, cfg.degree, rule)
    diag = np.atleast_1d(est.diag(grid))
    summary = {
        "n_points": len(grid),
        "degree": cfg.degree,
        "effective_degree": est.effective_degree,
        "degraded": bool(est.degraded),
        "condition_estimate": est.condition_estimate,
        "diag_max": float(diag.max()),
        "diag_min": float(diag.min()),
        "resolution": cfg.resolution,
        # nested, so a sweep's CSV (scalar summary keys only) leaves it out
        "diagnostics": {"angle_bands": est.angle_bands()},
    }
    return ExperimentResult(EXIT_OK, summary, {
        "z_re": grid.real, "z_im": grid.imag, "N": cfg.degree, "K_N": diag,
        "condition_estimate": est.condition_estimate})


def _run_verify_bound(cfg: ExperimentConfig) -> ExperimentResult:
    w, grid, rule = _kernel_inputs(cfg)
    M = w.laplacian_bounds[1]
    cert = bounds_mod.global_certificate(w, M, grid, cfg.degree, rule)
    summary = {
        "pass": bool(cert.passed),
        "constant_C": cert.constant_C,
        "measured_sup": cert.measured_sup,
        "B_used": cert.metadata["B_used"],
        "M": M,
        "N": cfg.degree,
        "resolution": cfg.resolution,
        "margin": cert.margin,
        "error_estimate": cert.error_estimate,
        "tighter_constant": cert.metadata["tighter_constant"],
        # nested, so a sweep's CSV (scalar summary keys only) leaves it out
        "diagnostics": {"effective_degree": cert.metadata["effective_degree"],
                        "angle_bands": cert.metadata["angle_bands"]},
    }
    code = EXIT_OK if cert.passed else EXIT_CERTIFICATE
    return ExperimentResult(code, summary, {
        "z_re": grid.real, "z_im": grid.imag, "weighted_diag": cert.measured,
        "constant_C": cert.constant_C, "margin": cert.constant_C - cert.measured})


def _run_constants(cfg: ExperimentConfig) -> ExperimentResult:
    w = _require_weight(cfg)
    M = w.laplacian_bounds[1]
    B = potential_mod.B_EXACT
    phi0 = potential_mod.phi_at_origin(w, M)
    lo, hi = potential_mod.B_BRACKET
    summary = {
        "B_used": B,
        "bracket_lo": lo,
        "bracket_hi": hi,
        "phi0": phi0,
        "minus_M_over_4": -M / 4.0,
        "M": M,
        "constant_C": bounds_mod.certificate_constant(M),
    }
    return ExperimentResult(EXIT_OK, summary, {
        k: [summary[k]] for k in ("B_used", "bracket_lo", "bracket_hi", "phi0",
                                  "minus_M_over_4")})


def _run_equivalence(cfg: ExperimentConfig) -> ExperimentResult:
    wa = _require_weight(cfg, "weight")
    wb = _require_weight(cfg, "weight_b")
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-8
    grid = _build_grid(cfg, {"kind": "lattice", "radius": 2.0, "spacing": 0.25})
    verdict = equiv_mod.log_laplacian_equal(wa, wb, grid, tol)
    summary = {
        "equivalent": bool(verdict.passed),
        "criterion_deviation": verdict.checks[0].value,
        "tolerance": tol,
    }
    columns = {"z_re": [], "z_im": [], "residual": []}
    if verdict.passed:
        emap = equiv_mod.build_equivalence_map(wa, wb)
        residuals = np.abs(np.abs(emap(grid)) ** 2 * wb.density(grid)
                           / wa.density(grid) - 1.0)
        columns = {"z_re": grid.real, "z_im": grid.imag, "residual": residuals}
        summary["exponent_coefficients"] = [[c.real, c.imag]
                                            for c in emap.exponent_coefficients]
        summary["max_residual"] = float(residuals.max())
    code = EXIT_OK if verdict.passed else EXIT_CERTIFICATE
    return ExperimentResult(code, summary, columns)


def _run_potential(cfg: ExperimentConfig) -> ExperimentResult:
    w = _require_weight(cfg)
    M = w.laplacian_bounds[1]
    resolution = max(cfg.resolution, 64)
    potential = potential_mod.make_psi(w, M, resolution=resolution)
    grid = _build_grid(cfg, {"kind": "random", "radius": 0.98, "count": 200})
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-3
    report, phi_vals = potential_mod.verify_potential_bounds(potential, M, grid, tol)
    summary = {
        "pass": bool(report.passed),
        "B_used": potential_mod.B_EXACT,
        "M": M,
        "phi_sup": report.check("phi_upper").value,
        "phi_upper_limit": report.check("phi_upper").limit,
        "phi0": report.check("phi_at_origin").value,
        "phi0_lower_limit": report.check("phi_at_origin").limit,
        "poisson_residual": report.check("poisson_residual").value,
        "resolution": resolution,
    }
    code = EXIT_OK if report.passed else EXIT_CERTIFICATE
    return ExperimentResult(code, summary,
                            {"z_re": grid.real, "z_im": grid.imag, "phi": phi_vals})


_MEAN_VALUE_SAMPLES = (
    ("one", SampleFunction.polynomial([1.0])),
    ("omega", SampleFunction.polynomial([0.0, 1.0])),
    ("omega_sq", SampleFunction.polynomial([0.0, 0.0, 1.0])),
    ("exp_omega", SampleFunction.exponential(1.0)),
)


def _run_mean_value(cfg: ExperimentConfig) -> ExperimentResult:
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-8
    columns = {"sample": [], "s": [], "deviation": []}
    for s in cfg.s_values:
        for name, h in _MEAN_VALUE_SAMPLES:
            report = bounds_mod.mean_value_check(h, s, tol=tol)
            columns["sample"].append(name)
            columns["s"].append(s)
            columns["deviation"].append(report.checks[0].value)
    worst = max(columns["deviation"])
    summary = {
        "max_deviation": worst,
        "tolerance": tol,
        "pass": worst <= tol,
    }
    code = EXIT_OK if worst <= tol else EXIT_CERTIFICATE
    return ExperimentResult(code, summary, columns)


def _run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    results = []  # (entry, status, metric row)
    for entry in cfg.configs:
        try:
            results.append((entry, "ok", EXPERIMENTS[entry.experiment](entry).metric_row()))
        except Exception as exc:  # individual failures recorded, sweep continues
            results.append((entry, f"error:{type(exc).__name__}", {}))
    columns = {"index": list(range(len(results))),
               "label": [entry.label for entry, _, _ in results],
               "status": [status for _, status, _ in results]}
    # every metric in order of first appearance; a failed entry's cells are empty
    for k in dict.fromkeys(k for _, _, row in results for k in row):
        columns[k] = [row.get(k, "") for _, _, row in results]
    summary = {
        "n_entries": len(cfg.configs),
        "n_failed": sum(status != "ok" for _, status, _ in results),
        "entry_experiment": cfg.configs[0].experiment if cfg.configs else None,
    }
    return ExperimentResult(EXIT_OK, summary, columns)


# experiment name -> runner, in the order the help text lists them
EXPERIMENTS = {
    "kernel-diag": _run_diagonal,
    "verify-bound": _run_verify_bound,
    "constants": _run_constants,
    "equivalence": _run_equivalence,
    "potential": _run_potential,
    "mean-value": _run_mean_value,
    "sweep": _run_sweep,
}


def _write_outputs(cfg: ExperimentConfig, result: ExperimentResult, out_dir: str):
    """Write the CSV and the JSON summary, both or neither: each goes to a
    temporary file beside its target, and the two are moved into place only
    once both are written (a target that is a directory stops both moves)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.label}_{cfg.experiment}" if cfg.label else cfg.experiment
    schema = f"holobound.{cfg.experiment}.{SCHEMA_VERSION}"
    lines = [f"# schema {schema}", ",".join(result.columns)]
    lines.extend(map(",".join, zip(*_format_columns(result.columns.values()))))
    summary = dict(result.summary, experiment=cfg.experiment, schema=schema, seed=cfg.seed,
                   timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    texts = {out / f"{stem}.csv": "\n".join(lines) + "\n",
             out / f"{stem}_summary.json": json.dumps(summary, sort_keys=True, indent=2) + "\n"}
    temps = {path: out / f".{path.name}.{os.getpid()}.tmp" for path in texts}
    try:
        for path, text in texts.items():
            temps[path].write_text(text, encoding="utf-8", newline="\n")
        for path in texts:
            if path.is_dir():
                raise IsADirectoryError(f"is a directory: {path}")
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
    return tuple(texts)


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Run one experiment, writing its CSV and JSON summary.

    All computation happens before any file is touched, and the two files
    are moved into place together, so failed runs leave no partial outputs.
    An output directory that cannot be created or written is a
    :class:`ConfigError`.
    """
    result = EXPERIMENTS[cfg.experiment](cfg)
    out_dir = out_dir if out_dir is not None else cfg.out
    try:
        _write_outputs(cfg, result, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: {exc}") from exc
    return result.code


# ---------------------------------------------------------------------------
# Command line front end
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobound", description="Weighted holomorphic L2 kernel experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory (default: config's, else '.')")
    for key in _RANGES:
        parser.add_argument(f"--{key}", type=int, help=f"override the config's {key}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
            if cfg.experiment != args.experiment:
                raise ConfigError(
                    f"config is for experiment {cfg.experiment!r}, "
                    f"but {args.experiment!r} was requested")
        else:
            if args.experiment != "mean-value":
                raise ConfigError(f"experiment {args.experiment!r} needs --config")
            cfg = parse_config({"experiment": "mean-value"})
        flags = {key: getattr(args, key) for key in _RANGES
                 if getattr(args, key) is not None}
        if flags and cfg.experiment == "sweep":
            raise ConfigError(f"sweep takes no {', '.join('--' + k for k in flags)}; "
                              f"set them in its entries")
        for key, value in flags.items():
            setattr(cfg, key, _in_range(key, value))
        code = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PositiveDefinitenessError, NonFiniteIntegrandError, WeightError,
            ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if code == EXIT_CERTIFICATE:
        print("certificate failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
