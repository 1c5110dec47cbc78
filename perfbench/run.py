"""holobound benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

One client runs a workload's ops in order, pass after pass, until
``--seconds`` have gone by (at least one pass).  Every op is one
``holobound.cli.main(argv)`` in a fresh interpreter (``worker.py``), so it
pays what a user's ``holobound <experiment> --config ...`` pays; only one
worker runs at a time.  Each op's outputs are checked (see ``workloads.py``),
and each CSV must be byte-identical to the first pass's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half traced, and reports the
per-layer metrics (per pass, median over traced passes) and
``trace.overhead``, the traced over the untraced median ``pass_s``.

Human-readable lines (environment, metric table, span table) come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
OP_TIMEOUT_S = 60.0
# no op starts or runs past this many seconds after the first, so a run ends
# well inside three minutes even when every op hangs
RUN_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# per-layer metrics of a traced pass: (name, unit, source, key)
# source "self"/"incl" reads the span table, "count" a counter, "csv" the outputs
PER_LAYER = (
    ("quadrature.rule_s", "s", "self", "quadrature.rule"),
    ("quadrature.rules", "count", "count", "quadrature.rules"),
    ("quadrature.nodes", "count", "count", "quadrature.nodes"),
    ("quadrature.integrate_s", "s", "self", "quadrature.integrate"),
    ("quadrature.integrals", "count", "count", "quadrature.integrals"),
    ("weights.build_s", "s", "self", "weights.build"),
    ("weights.eval_s", "s", "self", "weights.eval"),
    ("weights.eval_points", "count", "count", "weights.eval_points"),
    ("weights.laplacian_s", "s", "self", "weights.laplacian"),
    ("weights.laplacian_points", "count", "count", "weights.laplacian_points"),
    ("greens.setup_s", "s", "self", "greens.setup"),
    ("greens.eval_s", "s", "self", "greens.eval"),
    ("greens.eval_points", "count", "count", "greens.eval_points"),
    ("greens.psi_points", "count", "count", "greens.psi_points"),
    ("potential.B_s", "s", "incl", "potential.B"),
    ("potential.B_calls", "count", "count", "potential.B_calls"),
    ("potential.make_psi_s", "s", "self", "potential.make_psi"),
    ("potential.verify_s", "s", "self", "potential.verify"),
    ("kernel.build_s", "s", "self", "kernel.build"),
    ("kernel.builds", "count", "count", "kernel.builds"),
    ("kernel.factor_s", "s", "self", "kernel.factor"),
    ("kernel.factor_calls", "count", "count", "kernel.factor_calls"),
    ("kernel.gram_flops", "flop_computed", "count", "kernel.gram_flops"),
    ("kernel.gram_bytes", "B_computed", "count", "kernel.gram_bytes"),
    ("kernel.degraded", "count", "count", "kernel.degraded"),
    ("kernel.diag_s", "s", "self", "kernel.diag"),
    ("kernel.diag_points", "count", "count", "kernel.diag_points"),
    ("bounds.certificate_s", "s", "self", "bounds.certificate"),
    ("bounds.certificates", "count", "count", "bounds.certificates"),
    ("cli.self_s", "s", "self", "cli.main"),
    ("cli.csv_bytes", "B", "csv", None),
)


class Failure(Exception):
    """The benchmark cannot run here at all (no program to measure)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        revision = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": revision,
        "seed": seed,
        "clients": 1,
        "max_workers": 1,
    }


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops one at a time in fresh workers and checks what they produce."""

    def __init__(self, workdir: Path, ops: list):
        self.workdir = workdir
        self.ops = ops
        self.hard_deadline = time.monotonic() + RUN_LIMIT_S
        self.env = worker_env()
        self.first_csv = {}
        self.attempted = 0
        self.failures = []
        self.setups, self.rss_kb = [], []
        config_dir = workdir / "configs"
        config_dir.mkdir()
        self.config_paths = {}
        for op in ops:
            path = config_dir / f"{op.name}.json"
            path.write_text(json.dumps(op.config, indent=1), encoding="utf-8")
            self.config_paths[op.name] = path

    def warm_up(self):
        """Import the package once so set-up timings see warm file caches."""
        proc = subprocess.run([sys.executable, "-c", "import holobound.cli"],
                              env=self.env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise Failure(f"cannot import holobound from {ROOT / 'src'}:\n{proc.stderr}")

    def run_op(self, op, traced: bool):
        """Returns (main seconds, csv bytes, trace summary), or None if the
        worker gave no result; a failed check is recorded, the time kept."""
        self.attempted += 1
        out_dir = self.workdir / "out" / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [op.experiment, "--config", str(self.config_paths[op.name]),
                "--out", str(out_dir)]
        timeout = min(OP_TIMEOUT_S, self.hard_deadline - time.monotonic())
        if timeout <= 0:
            return self._fail(op, f"not run: the run passed its {RUN_LIMIT_S} s limit")
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "1" if traced else "0", *argv],
                env=self.env, capture_output=True, text=True, timeout=timeout,
                check=False)
        except subprocess.TimeoutExpired:
            return self._fail(op, f"timed out after {timeout:.1f} s")
        if proc.returncode != 0:
            return self._fail(op, f"worker crashed ({proc.returncode}): {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(result["ready"] - spawned)
        self.rss_kb.append(result["maxrss_kb"])
        output = workloads.read_output(out_dir, op.experiment)
        if result["code"] != op.expected_code:
            self._fail(op, f"exit code {result['code']}, expected "
                           f"{op.expected_code}: {proc.stderr[-2000:]}")
        else:
            problems = self._check(op, output)
            if problems:
                self._fail(op, "; ".join(problems)[:2000])
        return result["main_s"], len(output.csv_bytes), result["trace"]

    def _check(self, op, output) -> list:
        if op.expected_code != workloads.EXIT_OK:
            return ["outputs written by a failing run"] if output.csv_bytes else []
        if not output.csv_bytes:
            return ["no CSV written"]
        digest = hashlib.sha256(output.csv_bytes).hexdigest()
        first = self.first_csv.setdefault(op.name, digest)
        problems = [] if first == digest else ["CSV differs from the first pass's"]
        try:
            return problems + op.check(output)
        except (KeyError, ValueError, IndexError) as exc:
            return problems + [f"malformed output: {exc!r}"]

    def _fail(self, op, message: str):
        self.failures.append(f"{op.name}: {message}")
        return None

    def run_passes(self, deadline: float, traced: bool) -> list:
        """At least one pass, then another while one as long as the last would
        still end by the deadline; per pass the summed main time, CSV
        bytes and traces of the ops that succeeded."""
        passes = []
        while True:
            began = time.monotonic()
            main_s, csv_bytes, traces = 0.0, 0, []
            for op in self.ops:
                done = self.run_op(op, traced)
                if done is not None:
                    main_s += done[0]
                    csv_bytes += done[1]
                    traces.append(done[2])
            passes.append({"main_s": main_s, "csv_bytes": csv_bytes, "traces": traces})
            now = time.monotonic()
            if now + (now - began) > deadline:
                return passes


# ---------------------------------------------------------------------------
# Statistics and reporting
# ---------------------------------------------------------------------------

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pass_layer_metrics(p: dict) -> dict:
    """Per-layer totals of one traced pass, summed over its ops."""
    spans, counts = {}, {}
    for t in p["traces"]:
        for name, row in t["spans"].items():
            acc = spans.setdefault(name, {"incl": 0.0, "self": 0.0})
            acc["incl"] += row["inclusive_s"]
            acc["self"] += row["self_s"]
        for key, value in t["counters"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for name, _unit, source, key in PER_LAYER:
        if source == "csv":
            out[name] = p["csv_bytes"]
        elif source == "count":
            out[name] = counts.get(key, 0)
        else:
            out[name] = spans.get(key, {}).get(source, 0.0)
    return out


def boundary_table(passes: list) -> list:
    """Lines of per-boundary call counts and per-span times, summed over passes."""
    calls, missing, spans = {}, {}, {}
    for p in passes:
        for t in p["traces"]:
            for key, n in t["calls"].items():
                calls[key] = calls.get(key, 0) + n
            missing.update(t["missing"])
            for name, row in t["spans"].items():
                acc = spans.setdefault(name, [0.0, 0.0])
                acc[0] += row["inclusive_s"]
                acc[1] += row["self_s"]
    n = len(passes)
    lines = [f"boundary calls per traced pass ({n} passes):"]
    lines += [f"  {key:<52} {calls[key] / n:>12.1f}" for key in sorted(calls)]
    lines += [f"  {key:<52} {'MISSING':>12}" for key in sorted(missing)]
    total = sum(self_s for _, self_s in spans.values())
    lines.append("span           inclusive_s/pass  self_s/pass  share_of_traced_time")
    for name, (incl, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {name:<22} {incl / n:>12.4f} {self_s / n:>12.4f} "
                     f"{incl / total if total else 0.0:>10.3f}")
    return lines


def metric_line(name: str, unit: str, values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<14} {med:>12.6g} {unit:<6} n={len(values):<3} q1={q1:.6g} q3={q3:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    ops = workloads.WORKLOADS[name](seed, tiny=tiny)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    try:
        runner = Runner(workdir, ops)
        runner.warm_up()
        start = time.monotonic()
        untraced = runner.run_passes(start + (seconds / 2 if trace else seconds), False)
        traced = runner.run_passes(start + seconds, True) if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if not runner.rss_kb:
        raise Failure("no op completed:\n" + "\n".join(runner.failures[:5]))
    pass_s = [p["main_s"] for p in untraced]
    lines = [f"workload {name}: {len(ops)} ops per pass, {len(untraced)} untraced "
             f"and {len(traced)} traced passes, {runner.attempted} ops"]
    fail_rate = len(runner.failures) / runner.attempted
    lines += [metric_line("pass_s", "s", pass_s),
              metric_line("setup_s", "s", runner.setups),
              metric_line("peak_rss_mb", "MB", [max(runner.rss_kb) / 1024.0]),
              f"{'fail_rate':<14} {fail_rate:>12.6g} ratio  "
              f"({len(runner.failures)} of {runner.attempted} ops)"]
    lines += [f"FAILED {f}" for f in runner.failures]
    if trace:
        # a layer with a boundary the tracer could not find reports no metrics,
        # so a renamed entry point shows as missing rather than as zero time
        missing = {span.split(".")[0] for p in traced for t in p["traces"]
                   for span in t["missing"].values()}
        metrics = {}
        per_pass = [pass_layer_metrics(p) for p in traced]
        for metric, unit, _source, _key in PER_LAYER:
            if metric.split(".")[0] not in missing:
                metrics[metric] = {"value": statistics.median(m[metric] for m in per_pass),
                                   "unit": unit}
        traced_s = statistics.median(p["main_s"] for p in traced)
        metrics["trace.overhead"] = {"value": traced_s / statistics.median(pass_s),
                                     "unit": "ratio"}
        lines += boundary_table(traced)
        lines += [f"{k:<28} {v['value']:>16.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "setup_s": {"value": statistics.median(runner.setups), "unit": "s"},
            "peak_rss_mb": {"value": max(runner.rss_kb) / 1024.0, "unit": "MB"},
        }
    return {"lines": lines, "attempted": runner.attempted,
            "failed": len(runner.failures), "metrics": metrics}


def self_check() -> int:
    """Every workload's op loop, output checks and tracer on tiny configs."""
    ok = True
    for name in workloads.WORKLOADS:
        result = run_workload(name, seed=1, seconds=0.0, trace=True, tiny=True)
        print("\n".join(result["lines"]))
        missing = [m for m, *_ in PER_LAYER if m not in result["metrics"]]
        good = result["failed"] == 0 and not missing
        print(f"self-check {name}: {'ok' if good else 'FAILED'}")
        ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once on tiny configs and exit")
    args = parser.parse_args(argv)
    # a terminated run still kills its worker and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              tiny=False)
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("\n".join(result["lines"]))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
