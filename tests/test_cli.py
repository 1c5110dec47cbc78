import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobound import cli, greens
from holobound.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    run,
)
from holobound.potential import B_BRACKET, B_EXACT
from holobound.quadrature import QuadratureRule
from oracles import csv_by_rows

SRC = Path(__file__).resolve().parents[1] / "src"
GAUSS = {"family": "gaussian", "params": {"t": 1.0}, "laplacian_bounds": [4.0, 4.0]}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(*args):
    """The CLI in a fresh interpreter, importing the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=False)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# schema holobound.")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config({"experiment": "constants", "weight": GAUSS,
                          "resolutoin": 64})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config({"experiment": "frobnicate"})

    def test_degree_range(self):
        with pytest.raises(ConfigError, match="degree"):
            parse_config({"experiment": "kernel-diag", "weight": GAUSS, "degree": 65})

    def test_resolution_range(self):
        with pytest.raises(ConfigError, match="resolution"):
            parse_config({"experiment": "kernel-diag", "weight": GAUSS,
                          "resolution": 8192})

    def test_unknown_grid_key(self):
        with pytest.raises(ConfigError, match="unknown grid keys"):
            parse_config({"experiment": "kernel-diag", "weight": GAUSS,
                          "grid": {"kind": "lattice", "radius": 1.0,
                                   "spacing": 0.5, "rotation": 1.0}})

    def test_mixed_sweep_rejected(self):
        with pytest.raises(ConfigError, match="share one experiment"):
            parse_config({"experiment": "sweep", "configs": [
                {"experiment": "constants", "weight": GAUSS},
                {"experiment": "mean-value"},
            ]})

    def test_sweep_needs_configs(self):
        with pytest.raises(ConfigError, match="configs"):
            parse_config({"experiment": "sweep"})


class TestMainExitCodes:
    def test_malformed_config_key_no_partial_files(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json",
                           {"experiment": "constants", "weight": GAUSS,
                            "resolutoin": 64})
        out = tmp_path / "out"
        code = main(["constants", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())

    def test_unwritable_out_exits_2(self, tmp_path):
        # the output directory would sit under a regular file
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "sub"
        proc = run_cli("-m", "holobound.cli", "mean-value", "--out", str(out))
        assert proc.returncode == EXIT_CONFIG
        assert f"config error: cannot write outputs to {out}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("blocked", ["kernel-diag.csv", "kernel-diag_summary.json"])
    def test_unwritable_output_file_writes_neither(self, tmp_path, capsys, blocked):
        # one target is a directory: the run exits 2, writes neither file
        # and leaves the files of an earlier run as they were
        cfg = write_config(tmp_path, "kd.json", {
            "experiment": "kernel-diag", "weight": GAUSS, "degree": 4, "resolution": 16,
            "grid": {"kind": "points", "points": [[0.0, 0.0]]}})
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        old = {"kernel-diag.csv": "old csv\n", "kernel-diag_summary.json": "{}\n"}
        for name, text in old.items():
            if name != blocked:
                (out / name).write_text(text, encoding="utf-8")
        assert main(["kernel-diag", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "config error: cannot write outputs" in capsys.readouterr().err
        assert sorted(p.name for p in out.rglob("*")) == sorted(old)
        assert not any((out / blocked).iterdir())
        for name, text in old.items():
            if name != blocked:
                assert (out / name).read_text(encoding="utf-8") == text

    def test_missing_config(self, tmp_path):
        assert main(["constants", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_experiment_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "constants", "weight": GAUSS})
        assert main(["kernel-diag", "--config", cfg]) == EXIT_CONFIG

    def test_invalid_weight_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "constants",
                            "weight": {"family": "gaussian", "params": {"t": -1.0}}})
        assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_weight_parameter_is_config_error(self, tmp_path, capsys):
        # "b" is not a parameter of the family (b_re and b_im are): it must
        # not be dropped in favour of the default b = 0
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "verify-bound", "degree": 8, "resolution": 32,
            "weight": {"family": "gaussian_harmonic", "params": {"a": 1.0, "b": 0.3}},
        })
        out = tmp_path / "out"
        assert main(["verify-bound", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "unknown parameters ['b']" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_numeric_failure(self, tmp_path):
        # lap(phi) dips below zero for eps > 2a, so the cutoff-density
        # validation inside the potential pipeline must reject the weight
        cfg = write_config(tmp_path, "c.json", {
            "experiment": "potential",
            "weight": {"family": "oscillatory", "params": {"a": 1.0, "eps": 2.1}},
        })
        out = tmp_path / "out"
        code = main(["potential", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flag, value", [("--degree", "65"), ("--resolution", "7"),
                                             ("--seed", "-4")])
    def test_out_of_range_override(self, tmp_path, capsys, flag, value):
        # the flags share the config's range check, so they fail the same way
        cfg = write_config(tmp_path, "c.json", {"experiment": "kernel-diag", "weight": GAUSS})
        out = tmp_path / "out"
        code = main(["kernel-diag", "--config", cfg, "--out", str(out), flag, value])
        assert code == EXIT_CONFIG
        assert f"{flag[2:]} must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, flags, message", [
        ({"grid": {"kind": "lattice", "radius": 2}}, [], "needs keys ['spacing']"),
        ({"grid": {"kind": "lattice", "radius": 2, "spacing": 0}}, [], "grid spacing"),
        ({"grid": {"kind": "random", "radius": 1, "count": 0}}, [], "grid count"),
        ({"grid": {"kind": "random", "radius": 1, "count": -3}}, [], "grid count"),
        ({"grid": {"kind": "random", "radius": 1, "count": 2.5}}, [], "grid count"),
        ({"grid": {"kind": "random", "radius": float("nan"), "count": 3}}, [],
         "grid radius"),
        ({"grid": {"kind": "points", "points": [[0]]}}, [], "[x, y] pairs"),
        ({"degree": 8.9}, [], "degree must be an integer"),
        ({"degree": "8"}, [], "degree must be an integer"),
        ({"degree": True}, [], "degree must be an integer"),
        ({"degree": "x"}, [], "degree must be an integer"),
        ({"resolution": 64.0}, [], "resolution must be an integer"),
        ({"seed": -4}, [], "seed must lie in"),
        ({"experiment": "mean-value", "s_values": [1.5]}, [], "s_values"),
        ({"experiment": "mean-value", "tolerance": "x"}, [], "tolerance"),
        ({"experiment": "mean-value", "tolerance": -1.0}, [], "tolerance"),
        ({"experiment": "sweep", "configs": 5}, [], "'configs' must be a list"),
        # a label is part of a file name: it may not leave the output directory
        ({"label": "../escaped"}, [], "label '../escaped'"),
        # nor add a column to a sweep row
        ({"experiment": "sweep", "configs": [
            {"experiment": "kernel-diag", "weight": GAUSS, "label": "a,b"}]}, [],
         "label 'a,b'"),
        ({"experiment": "sweep", "configs": [{"experiment": "kernel-diag", "weight": GAUSS}]},
         ["--degree", "20", "--seed", "3"], "sweep takes no --degree, --seed"),
        # a grid is counted before it is built: this lattice would need a
        # 2000001 x 2000001 meshgrid
        ({"grid": {"kind": "lattice", "radius": 1e6, "spacing": 1}}, [],
         "grid of 4000004000001 points exceeds the cap of 1000000"),
        ({"grid": {"kind": "lattice", "radius": 1e300, "spacing": 1e-300}}, [],
         "grid of inf points"),
        ({"grid": {"kind": "random", "radius": 1, "count": 1000001}}, [],
         "grid of 1000001 points"),
        ({"label": None}, [], "label must be a string, got None"),
        ({"out": 5}, [], "out must be a string, got 5"),
        # a JSON integer beyond the float range (about 1.8e308) is a config
        # error wherever a number is read, not a failed float conversion
        ({"grid": {"kind": "lattice", "radius": 10 ** 400, "spacing": 0.5}}, [],
         "config error: grid radius must be a positive finite number"),
        ({"grid": {"kind": "points", "points": [[10 ** 400, 0]]}}, [],
         "config error: grid kind 'points' needs"),
        ({"tolerance": 10 ** 400}, [], "config error: tolerance must be"),
        ({"weight": {"family": "gaussian", "params": {"t": 10 ** 400}}}, [],
         "config error: invalid weight: weight parameters must be finite numbers, "
         "got t = 1000"),
        ({"weight": dict(GAUSS, laplacian_bounds=[4, 10 ** 400])}, [],
         "config error: invalid weight: laplacian_bounds must be a pair of numbers"),
    ])
    def test_malformed_config_exits_2_writing_nothing(self, tmp_path, capsys, payload,
                                                      flags, message):
        config = {"experiment": "kernel-diag", "weight": GAUSS, "degree": 4,
                  "resolution": 16, **payload}
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out" / "o"
        code = main([config["experiment"], "--config", cfg, "--out", str(out), *flags])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json"]

    def test_integer_beyond_parser_limit_exits_2(self, tmp_path, capsys):
        # json refuses integers of more than 4300 digits with a plain ValueError
        cfg = tmp_path / "c.json"
        cfg.write_text('{"experiment": "kernel-diag", "seed": ' + "1" * 5000 + "}",
                       encoding="utf-8")
        code = main(["kernel-diag", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "is not valid JSON" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json"]


def test_grid_cap_counts_points(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 2)
    with pytest.raises(ConfigError, match="grid of 3 points"):
        parse_config({"experiment": "kernel-diag", "weight": GAUSS,
                      "grid": {"kind": "points", "points": [[0, 0], [1, 0], [0, 1]]}})
    # a lattice of spacing 1 and radius 0.5 allocates the single point 0
    parse_config({"experiment": "kernel-diag", "weight": GAUSS,
                  "grid": {"kind": "lattice", "radius": 0.5, "spacing": 1}})


class TestCSVWriter:
    """Each experiment's CSV equals the per-row writer's, byte for byte."""

    POINTS = {"kind": "points", "points": [[0.0, 0.0], [-0.5, 0.25], [1.0, -1.0]]}
    # signed zeros, which a float comparison would merge, and a repeated point
    ZEROS = {"kind": "points", "points": [[-0.0, 0.0], [0.0, -0.0], [0.5, 0.5], [0.5, 0.5]]}
    LATTICE = {"kind": "lattice", "radius": 1.0, "spacing": 0.25}
    RANDOM = {"kind": "random", "radius": 0.9, "count": 6}
    HARMONIC = {"family": "gaussian_harmonic", "params": {"a": 1.0, "c_re": 2.0}}
    CASES = {
        "kernel-diag": {"experiment": "kernel-diag", "weight": GAUSS, "degree": 8,
                        "resolution": 32, "grid": POINTS},
        "kernel-diag-lattice": {"experiment": "kernel-diag", "weight": GAUSS, "degree": 8,
                                "resolution": 32, "grid": LATTICE},
        "kernel-diag-zeros": {"experiment": "kernel-diag", "weight": GAUSS, "degree": 8,
                              "resolution": 32, "grid": ZEROS},
        "verify-bound": {"experiment": "verify-bound", "weight": GAUSS, "degree": 8,
                         "resolution": 32, "grid": RANDOM, "seed": 5},
        "verify-bound-lattice": {"experiment": "verify-bound", "weight": GAUSS, "degree": 8,
                                 "resolution": 32, "grid": LATTICE},
        "constants": {"experiment": "constants", "weight": GAUSS},
        "equivalence": {"experiment": "equivalence", "weight": GAUSS, "weight_b": HARMONIC,
                        "grid": POINTS},
        "inequivalent": {"experiment": "equivalence", "weight": GAUSS,
                         "weight_b": {"family": "gaussian", "params": {"t": 0.5}}},
        "potential": {"experiment": "potential", "weight": GAUSS, "resolution": 64,
                      "grid": RANDOM, "seed": 5},
        "mean-value": {"experiment": "mean-value"},
        # true, false and empty cells: a failed entry has no metrics
        "sweep": {"experiment": "sweep", "configs": [
            {"experiment": "equivalence", "label": "same", "weight": GAUSS,
             "weight_b": HARMONIC, "grid": POINTS},
            {"experiment": "equivalence", "label": "other", "weight": GAUSS,
             "weight_b": {"family": "gaussian", "params": {"t": 0.5}}},
            {"experiment": "equivalence", "label": "broken", "weight": GAUSS}]},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_row_writer(self, tmp_path, case):
        cfg = parse_config(self.CASES[case])
        result = cli.EXPERIMENTS[cfg.experiment](cfg)
        csv_path, _ = cli._write_outputs(cfg, result, str(tmp_path))
        text = csv_path.read_text(encoding="utf-8")
        assert text == csv_by_rows(cfg.experiment, result.columns)
        assert len(text.splitlines()) > 2 or case == "inequivalent"
        if case == "sweep":
            assert {"true", "false", ""} <= set(text.replace("\n", ",").split(","))

    # bit patterns a float comparison would get wrong or merge: signed zeros,
    # NaNs with sign and payload, infinities, subnormals and the extremes
    SPECIAL_BITS = [0x0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000,
                    0x7FF0000000000001, 0x7FF4000000000abc, 0xFFFFFFFFFFFFFFFF,
                    0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                    0x0010000000000000, 0x7FEFFFFFFFFFFFFF]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_float_columns_format_like_repr(self, data):
        # every special pattern, drawn ones, and repeats of both, shuffled
        bits = self.SPECIAL_BITS + data.draw(st.lists(st.one_of(
            st.integers(0, 2 ** 64 - 1),
            st.floats().map(lambda x: int(np.float64(x).view(np.uint64)))), max_size=16))
        bits += data.draw(st.lists(st.sampled_from(bits), max_size=48))
        col = np.array(data.draw(st.permutations(bits)), dtype=np.uint64).view(np.float64)
        z = np.empty(len(col), dtype=complex)
        z.real, z.imag = col, col[::-1]
        columns = [col, z.real, z.imag, col[::2]]  # strided views too
        assert [list(cells) for cells in cli._format_columns(columns)] == [
            list(map(repr, c.tolist())) for c in columns]

    def test_margin_is_the_per_point_difference(self):
        cfg = parse_config(self.CASES["verify-bound"])
        result = cli.EXPERIMENTS[cfg.experiment](cfg)
        c = result.columns
        assert [float(m) for m in c["margin"]] == [c["constant_C"] - float(p)
                                                  for p in c["weighted_diag"]]


class TestConstantsCommand:
    def test_csv_row(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "constants", "weight": GAUSS})
        code = main(["constants", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "constants.csv")
        assert header == ["B_used", "bracket_lo", "bracket_hi", "phi0",
                          "minus_M_over_4"]
        assert len(rows) == 1
        B, lo, hi, phi0, neg_m4 = map(float, rows[0])
        assert B_BRACKET[0] <= B <= B_BRACKET[1]
        assert (lo, hi) == B_BRACKET
        assert phi0 >= neg_m4 - 1e-4
        summary = json.loads((tmp_path / "constants_summary.json").read_text())
        assert summary["M"] == 4.0

    def test_builds_no_potential(self, tmp_path, monkeypatch):
        # phi0 comes from the circle means alone
        def no_potential(*args, **kwargs):
            raise AssertionError("the constants experiment built a LogPotential")
        monkeypatch.setattr(greens.LogPotential, "__init__", no_potential)
        weight = {"family": "oscillatory", "params": {"a": 1.0, "eps": 0.5}}
        cfg = write_config(tmp_path, "c.json", {"experiment": "constants", "weight": weight})
        assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "constants_summary.json").read_text())
        assert summary["phi0"] >= summary["minus_M_over_4"]


class TestVerifyBoundCommand:
    def test_gaussian_passes(self, tmp_path):
        cfg = write_config(tmp_path, "vb.json", {
            "experiment": "verify-bound", "weight": GAUSS,
            "degree": 16, "resolution": 64,
            "grid": {"kind": "lattice", "radius": 1.5, "spacing": 0.3},
        })
        code = main(["verify-bound", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "verify-bound_summary.json").read_text())
        assert summary["pass"] is True
        assert {"constant_C", "measured_sup", "B_used", "M", "N",
                "resolution", "diagnostics"} <= set(summary)
        assert summary["diagnostics"]["effective_degree"] == 16
        # the angle count of each band of rings of the 64-ring rule
        assert summary["diagnostics"]["angle_bands"] == [[64, 64]]
        header, rows = read_csv(tmp_path / "verify-bound.csv")
        assert header == ["z_re", "z_im", "weighted_diag", "constant_C", "margin"]
        assert all(float(r[4]) > 0 for r in rows)

    def test_sweep_csv_keeps_scalar_metrics_only(self, tmp_path):
        entry = {"experiment": "verify-bound", "weight": GAUSS, "degree": 8,
                 "resolution": 32, "grid": {"kind": "random", "radius": 1.5, "count": 5}}
        cfg = write_config(tmp_path, "sw.json",
                           {"experiment": "sweep", "configs": [entry, entry]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["index", "label", "status", "pass", "constant_C",
                          "measured_sup", "B_used", "M", "N", "resolution", "margin",
                          "error_estimate", "tighter_constant"]
        assert len(rows) == 2

    def test_determinism_byte_identical(self, tmp_path):
        payload = {
            "experiment": "verify-bound", "weight": GAUSS, "seed": 42,
            "degree": 12, "resolution": 48,
            "grid": {"kind": "random", "radius": 1.5, "count": 40},
        }
        cfg = write_config(tmp_path, "vb.json", payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify-bound", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["verify-bound", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        csv_a = (out_a / "verify-bound.csv").read_bytes()
        csv_b = (out_b / "verify-bound.csv").read_bytes()
        assert csv_a == csv_b
        sum_a = json.loads((out_a / "verify-bound_summary.json").read_text())
        sum_b = json.loads((out_b / "verify-bound_summary.json").read_text())
        sum_a.pop("timestamp"), sum_b.pop("timestamp")
        assert sum_a == sum_b


class TestBUsed:
    @pytest.mark.parametrize("experiment, extra", [
        ("verify-bound", {"degree": 8, "resolution": 32,
                          "grid": {"kind": "lattice", "radius": 1.0, "spacing": 0.5}}),
        ("constants", {}),
        ("potential", {"grid": {"kind": "random", "radius": 0.9, "count": 5}}),
    ])
    def test_reports_closed_form_exactly(self, tmp_path, experiment, extra):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": experiment, "weight": GAUSS, **extra})
        assert main([experiment, "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / f"{experiment}_summary.json").read_text())
        assert summary["B_used"] == B_EXACT == 2.0 * math.log(2.0) - 0.5


class TestKernelDiagCommand:
    def test_rows_match_grid(self, tmp_path):
        cfg = write_config(tmp_path, "kd.json", {
            "experiment": "kernel-diag", "weight": GAUSS,
            "degree": 10, "resolution": 48,
            "grid": {"kind": "points", "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        })
        code = main(["kernel-diag", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "kernel-diag.csv")
        assert header == ["z_re", "z_im", "N", "K_N", "condition_estimate"]
        assert len(rows) == 3
        assert float(rows[0][3]) == pytest.approx(1.0 / math.pi, rel=1e-6)
        summary = json.loads((tmp_path / "kernel-diag_summary.json").read_text())
        # 96 angles halve to 24, the smallest count above 2N = 20
        assert summary["diagnostics"] == {"angle_bands": [[24, 48]]}

    @pytest.mark.parametrize("experiment", ["kernel-diag", "verify-bound"])
    def test_builds_no_node_array(self, tmp_path, monkeypatch, experiment):
        # the Gram samples the density ring by ring at its own angle counts
        def no_nodes(rule):
            raise AssertionError(f"{experiment} built the node array of {rule!r}")
        monkeypatch.setattr(QuadratureRule, "_tensor", property(no_nodes))
        cfg = write_config(tmp_path, "c.json", {
            "experiment": experiment, "degree": 12, "resolution": 64,
            "weight": {"family": "oscillatory", "params": {"a": 1.0, "eps": 0.5}},
            "grid": {"kind": "lattice", "radius": 1.0, "spacing": 0.5}})
        assert main([experiment, "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK


class TestTranslatedWeight:
    """A weight translated by z0 is phi(z0 + .): the kernel rule is centred
    on its mass at -z0, so the full degree is kept and K_N is the exact
    partial sum (1/pi) sum_{n <= N} |z + z0|^{2n} / n! of the Gaussian."""

    POINTS = [[0.0, 0.0], [1.0, 0.0], [-1.5, 0.5], [0.0, -2.0], [1.2, 1.2]]

    @staticmethod
    def weight(z0):
        return dict(GAUSS, params={"t": 1.0, "z0_re": z0.real, "z0_im": z0.imag})

    @staticmethod
    def partial_sum(z, z0):
        s = abs(z + z0) ** 2
        return math.fsum(s ** n / math.factorial(n) for n in range(41)) / math.pi

    @pytest.mark.parametrize("z0", [2, 3, 5, 3 - 4j])
    def test_kernel_diag_exact_partial_sums(self, tmp_path, z0):
        cfg = write_config(tmp_path, "kd.json", {
            "experiment": "kernel-diag", "weight": self.weight(complex(z0)),
            "degree": 40, "resolution": 256, "grid": {"kind": "points", "points": self.POINTS}})
        assert main(["kernel-diag", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "kernel-diag_summary.json").read_text())
        assert summary["effective_degree"] == 40 and summary["degraded"] is False
        header, rows = read_csv(tmp_path / "kernel-diag.csv")
        for (x, y), row in zip(self.POINTS, rows):
            assert float(row[header.index("K_N")]) == pytest.approx(
                self.partial_sum(complex(x, y), z0), rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(z0=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    def test_kernel_diag_keeps_full_degree_at_any_offset(self, z0):
        # the fixed points and the same points about the mass at -z0
        zs = [complex(x, y) for x, y in self.POINTS]
        zs += [z - z0 for z in zs]
        cfg = parse_config({
            "experiment": "kernel-diag", "weight": self.weight(z0), "degree": 40,
            "resolution": 256,
            "grid": {"kind": "points", "points": [[z.real, z.imag] for z in zs]}})
        result = cli.EXPERIMENTS["kernel-diag"](cfg)
        assert result.summary["effective_degree"] == 40
        for z, k_n in zip(zs, result.columns["K_N"]):
            assert k_n == pytest.approx(self.partial_sum(z, z0), rel=1e-13)

    def test_verify_bound_keeps_its_degree(self, tmp_path):
        # with the rule at the origin this run fell to degree 8 and passed
        # on a measured_sup of 0.145, an artefact of the low degree
        cfg = write_config(tmp_path, "vb.json", {
            "experiment": "verify-bound", "weight": self.weight(5 + 0j),
            "degree": 40, "resolution": 256})
        assert main(["verify-bound", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "verify-bound_summary.json").read_text())
        assert summary["diagnostics"]["effective_degree"] == 40
        assert summary["measured_sup"] == pytest.approx(1.0 / math.pi, rel=1e-12)


class TestFrontEnd:
    """``python -m holobound.cli`` in a fresh interpreter."""

    def test_help_names_every_experiment(self):
        proc = run_cli("-m", "holobound.cli", "--help")
        assert proc.returncode == EXIT_OK
        for name in ("kernel-diag", "verify-bound", "constants", "equivalence",
                     "potential", "mean-value", "sweep"):
            assert name in proc.stdout

    def test_unknown_experiment_exits_2(self, tmp_path):
        proc = run_cli("-m", "holobound.cli", "frobnicate", "--out", str(tmp_path))
        assert proc.returncode == EXIT_CONFIG
        assert "invalid choice: 'frobnicate'" in proc.stderr
        assert not any(tmp_path.iterdir())

    def test_mean_value_writes_its_csv(self, tmp_path):
        proc = run_cli("-m", "holobound.cli", "mean-value", "--out", str(tmp_path))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "mean-value.csv").exists()
        summary = json.loads((tmp_path / "mean-value_summary.json").read_text())
        assert summary["experiment"] == "mean-value"
        assert summary["schema"] == "holobound.mean-value.v1"


class TestEquivalenceCommand:
    def test_equivalent_pair(self, tmp_path):
        cfg = write_config(tmp_path, "eq.json", {
            "experiment": "equivalence",
            "weight": GAUSS,
            "weight_b": {"family": "gaussian_harmonic",
                         "params": {"a": 1.0, "c_re": 2.0}},
        })
        code = main(["equivalence", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "equivalence_summary.json").read_text())
        assert summary["equivalent"] is True
        assert summary["exponent_coefficients"] == [[0.0, 0.0], [2.0, 0.0]]
        assert summary["max_residual"] < 1e-10

    def test_inequivalent_pair_fails_certificate(self, tmp_path):
        cfg = write_config(tmp_path, "eq.json", {
            "experiment": "equivalence",
            "weight": GAUSS,
            "weight_b": {"family": "gaussian", "params": {"t": 0.5}},
        })
        code = main(["equivalence", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CERTIFICATE
        summary = json.loads((tmp_path / "equivalence_summary.json").read_text())
        assert summary["equivalent"] is False


class TestMeanValueCommand:
    def test_default_run(self, tmp_path):
        code = main(["mean-value", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "mean-value_summary.json").read_text())
        assert summary["max_deviation"] <= 1e-8
        header, rows = read_csv(tmp_path / "mean-value.csv")
        assert len(rows) == 8  # four samples, two radii


class TestPotentialCommand:
    def test_gaussian(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "experiment": "potential", "weight": GAUSS, "resolution": 128,
            "grid": {"kind": "random", "radius": 0.9, "count": 40}, "seed": 9,
        })
        code = main(["potential", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "potential_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["phi0"] >= -1.0 - 1e-4

    def test_reports_the_resolution_used(self, tmp_path):
        # the potential is built at no less than resolution 64
        cfg = write_config(tmp_path, "p.json", {
            "experiment": "potential", "weight": GAUSS, "resolution": 32,
            "grid": {"kind": "random", "radius": 0.9, "count": 10},
        })
        assert main(["potential", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "potential_summary.json").read_text())
        assert summary["resolution"] == 64

    @staticmethod
    def poisson_summary_at_resolution_128(tmp_path, weight, seed):
        cfg = write_config(tmp_path, "p.json", {
            "experiment": "potential", "weight": weight, "resolution": 128,
            "grid": {"kind": "random", "radius": 0.98, "count": 200}, "seed": seed,
        })
        code = main(["potential", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        return json.loads((tmp_path / "potential_summary.json").read_text())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weight", [
        GAUSS, {"family": "potential_defined", "params": {"a": 1.0}},
    ], ids=["gaussian", "potential_defined"])
    def test_radial_poisson_residual_at_resolution_128(self, tmp_path, weight, seed):
        # the 2-D engine at resolution 128 left stencil residuals near 1e-2 on
        # these grids (once 0.0345, above the 0.025 limit); the radial 1-D
        # path leaves about 1e-11
        summary = self.poisson_summary_at_resolution_128(tmp_path, weight, seed)
        assert summary["pass"] is True
        assert summary["poisson_residual"] < 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_oscillatory_poisson_residual_at_resolution_128(self, tmp_path, seed):
        # the 2-D engine left 1.0e-2 to 1.5e-2 here; the angular modes leave
        # about 1.1e-5, the five-point stencil's own h^2/12 truncation error
        weight = {"family": "oscillatory", "params": {"a": 1.0, "eps": 0.5}}
        summary = self.poisson_summary_at_resolution_128(tmp_path, weight, seed)
        assert summary["pass"] is True
        assert summary["poisson_residual"] < 5e-5


    @pytest.mark.parametrize("weight", [
        GAUSS, {"family": "oscillatory", "params": {"a": 1.0, "eps": 0.5}},
    ], ids=["gaussian", "oscillatory"])
    def test_one_evaluation_per_op(self, tmp_path, monkeypatch, weight):
        # the grid's stencils, the origin and the CSV's phi column share one
        # evaluation of Phi; the column matches a separate call on the grid
        calls, values = [], greens.LogPotential.values

        def spy(self, zs):
            calls.append((self, np.size(zs)))
            return values(self, zs)

        monkeypatch.setattr(greens.LogPotential, "values", spy)
        cfg = write_config(tmp_path, "p.json", {
            "experiment": "potential", "weight": weight, "resolution": 128,
            "grid": {"kind": "random", "radius": 0.98, "count": 200}, "seed": 4,
        })
        assert main(["potential", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert [n for _, n in calls] == [5 * 200 + 1]
        header, rows = read_csv(tmp_path / "potential.csv")
        table = np.array(rows, dtype=float)
        grid = table[:, header.index("z_re")] + 1j * table[:, header.index("z_im")]
        separate = values(calls[0][0], grid)
        assert np.max(np.abs(table[:, header.index("phi")] - separate)) <= 1e-15


class TestSweep:
    def test_epsilon_sweep(self, tmp_path):
        entries = [
            {"experiment": "constants", "label": f"eps{eps}",
             "weight": {"family": "oscillatory", "params": {"a": 1.0, "eps": eps}}}
            for eps in (0.0, 0.5, 1.0)
        ]
        cfg = write_config(tmp_path, "sweep.json",
                           {"experiment": "sweep", "configs": entries})
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header[:3] == ["index", "label", "status"]
        assert [r[1] for r in rows] == ["eps0.0", "eps0.5", "eps1.0"]
        assert all(r[2] == "ok" for r in rows)
        # M = 4a + 2 eps grows along the sweep
        m_col = header.index("M")
        assert [float(r[m_col]) for r in rows] == [4.0, 5.0, 6.0]

    def test_empty_sweep_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.json",
                           {"experiment": "sweep", "configs": []})
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert rows == []

    def test_individual_failure_recorded_sweep_continues(self, tmp_path):
        entries = [
            {"experiment": "potential", "weight": GAUSS, "resolution": 64,
             "grid": {"kind": "random", "radius": 0.9, "count": 20},
             "label": "ok-entry"},
            {"experiment": "potential", "label": "bad-entry",
             "weight": {"family": "oscillatory", "params": {"a": 1.0, "eps": 2.1}}},
        ]
        cfg = write_config(tmp_path, "sweep.json",
                           {"experiment": "sweep", "configs": entries})
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0][2] == "ok"
        assert rows[1][2].startswith("error:")

    def test_violating_verify_bound_entry_is_a_value_error(self, tmp_path):
        entries = [
            {"experiment": "verify-bound", "weight": GAUSS, "degree": 8, "resolution": 32,
             "grid": {"kind": "random", "radius": 1.5, "count": 10}, "label": "ok-entry"},
            {"experiment": "verify-bound", "label": "bad-entry", "degree": 8,
             "resolution": 32, "grid": {"kind": "random", "radius": 1.5, "count": 10},
             "weight": {"family": "oscillatory", "params": {"a": 1.0, "eps": 3.0}}},
        ]
        cfg = write_config(tmp_path, "sweep.json",
                           {"experiment": "sweep", "configs": entries})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert [r[2] for r in rows] == ["ok", "error:ValueError"]


def test_import_leaves_scipy_out():
    # the package runs on numpy alone; importing scipy.linalg would cost
    # every CLI run about a quarter of a second
    proc = run_cli("-c", "import sys, holobound.cli; sys.exit('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_random_grids_leave_numpy_random_out(tmp_path):
    # random grids reproduce default_rng's points without importing
    # numpy.random, which costs about 15 ms per CLI run
    grid = {"kind": "random", "radius": 0.9, "count": 20}
    potential = write_config(tmp_path, "potential.json", {
        "experiment": "potential", "weight": GAUSS, "resolution": 64, "grid": grid})
    sweep = write_config(tmp_path, "sweep.json", {"experiment": "sweep", "configs": [
        {"experiment": "verify-bound", "weight": GAUSS, "degree": 8, "resolution": 32,
         "grid": grid}]})
    script = (
        "import sys\n"
        "from holobound.cli import main\n"
        f"codes = [main([name, '--config', path, '--out', {str(tmp_path)!r}])\n"
        f"         for name, path in [('potential', {potential!r}), ('sweep', {sweep!r})]]\n"
        "sys.exit(f'exit codes {codes}' if any(codes) else 'numpy.random' in sys.modules)\n")
    proc = run_cli("-c", script)
    assert proc.returncode == 0, proc.stderr or "numpy.random was imported"
    assert (tmp_path / "potential.csv").exists() and (tmp_path / "sweep.csv").exists()
