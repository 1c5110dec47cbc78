"""Smoke test of the benchmark harness: every workload runs and is traced.

``perfbench/run.py --self-check`` runs each workload once on tiny configs
with the tracer installed, and fails a workload whose outputs do not check
out or whose traced entry points (``compute_B``, ``masked_disk_rule``, ...)
are missing, so renaming or deleting one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "diag", "potential", "sweep")


def test_self_check_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    for name in WORKLOADS:
        assert f"self-check {name}: ok" in proc.stdout.splitlines()
