"""Smoke test of the benchmark's traced harness against the current API.

``bench/spans.py`` wraps annuflow's public functions by name and reads
their arguments, so a renamed or reshaped function breaks every
``bench/run.py --trace 1`` run, and a renamed one silently drops its
per-layer metrics. This runs one traced sweep point in a fresh
interpreter; it reads ``bench/`` and writes nothing there. The point
solves one leading eigenpair, and dense QZ (``generalized_eig``) is
not reached.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import spans
import annuflow.sweep as sweep
from annuflow.spectral import build_grid

rec = spans.Recorder()
absent = spans.install(rec)
row = sweep.evaluate_point(1.0, 3.0, 5.0, -1e-4, build_grid(1.0, 3.0, 24))
metrics = spans.layer_metrics(rec, absent, import_s=0.0, overhead_frac=0.0)
print(json.dumps({{"status": row.status, "metrics": metrics,
                  "absent": sorted(absent)}}))
"""


def test_traced_sweep_point():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(bench=os.path.join(ROOT, "bench"))],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["status"] == "ok"
    assert out["absent"] == []
    metrics = out["metrics"]
    assert metrics["bifurcation.leading_eigenpair.calls"]["value"] == 1
    assert metrics["spectral.generalized_eig.calls"]["value"] == 0
