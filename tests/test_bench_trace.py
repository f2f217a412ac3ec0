"""Smoke test of the benchmark's traced harness against the current API.

``bench/spans.py`` wraps annuflow's public functions by name and reads
their arguments, so a renamed or reshaped function breaks every
``bench/run.py --trace 1`` run, and a renamed one silently drops its
per-layer metrics. This runs one traced sweep point in a fresh
interpreter and checks that it emits every per-layer metric that
``BENCHMARK.json`` names; it reads ``bench/`` and writes nothing there.
The point solves one leading eigenpair, and dense QZ
(``generalized_eig``) is not reached. A second case runs ``cli.main`` on
a ``bifurcate --phases 1``, a ``simulate --snapshot`` and a
``simulate --escape`` under tracing, so the observers that read
``write_field_csv``'s path and ``field_svg``'s text see the current
signatures, and the marching-squares and step counts keep their meaning.
"""

import json
import os
import re
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


CLI_SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import spans
import annuflow.cli as cli

rec = spans.Recorder()
absent = spans.install(rec)
codes = [cli.main(["bifurcate", "1", "3", "5", "--phases", "1", "-N", "24",
                   "--ntheta", "16", "-o", {out!r}]),
         cli.main(["simulate", "--steps", "5", "--ntheta", "8", "-N", "24",
                   "--mu", "1.2", "--dt", "0.005", "--snapshot", "-o", {out!r}]),
         cli.main(["simulate", "--mu", "1.2", "--escape", "1e-4,1e-3", "--ntheta", "8",
                   "-N", "24", "--dt", "0.005", "-o", {out!r} + "/escape"])]
names = [s[0] for s in rec.spans]
print(json.dumps({{"codes": codes, "absent": sorted(absent),
                  "counters": dict(rec.counters),
                  "calls": {{n: names.count(n) for n in set(names)}}}}))
"""


SIM_SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import spans
import annuflow as af

rec = spans.Recorder()
absent = spans.install(rec)
params = af.validate(1.0, 3.0, 5.0)
grid = af.build_grid(1.0, 3.0, 24)
sim = af.Simulator(params, grid, mu=1.2, dt=0.005, ntheta=8)
sim.run(sim.init_from_mode(af.leading_eigenpair(params, 1.2, grid), 1e-2), 7,
        sample_every=7)
names = [s[0] for s in rec.spans]
print(json.dumps({{"absent": sorted(absent),
                  "calls": {{n: names.count(n) for n in set(names)}}}}))
"""


def run_traced(script: str) -> dict:
    """Run script in a fresh interpreter on this checkout's src/; return
    the JSON document on its last stdout line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_sweep_point():
    out = run_traced(SCRIPT.format(bench=os.path.join(ROOT, "bench")))
    assert out["status"] == "ok"
    assert out["absent"] == []
    metrics = out["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) == names, (
        f"per-layer metrics missing or extra: {sorted(names ^ set(metrics))}; "
        "a traced name that no longer resolves drops its metrics, and removing "
        "or renaming one is a benchmark change")
    assert metrics["bifurcation.leading_eigenpair.calls"]["value"] == 1
    assert metrics["spectral.generalized_eig.calls"]["value"] == 0


def test_traced_cli_field_outputs(tmp_path):
    out = run_traced(CLI_SCRIPT.format(bench=os.path.join(ROOT, "bench"),
                                       out=str(tmp_path)))
    assert out["codes"] == [0, 0, 0]
    assert out["absent"] == []
    assert out["counters"]["io.write_field_csv.bytes"] > 0
    assert out["counters"]["contours.field_svg.bytes"] > 0
    # one marching-squares call per level drawn, so the per-layer count
    # keeps its meaning: the one phase's SVG draws N_LEVELS levels
    svg = (tmp_path / "field_phase0.svg").read_text()
    assert out["calls"]["contours.field_svg"] == 1
    colours = set(re.findall(r'<line [^>]*stroke="([^"]+)"', svg))
    assert out["calls"]["contours.marching_squares"] == len(colours) == 11
    # the escape run steps its batch through the traced step: five steps of
    # the snapshot run, then the batch's
    assert out["calls"]["simulator.step"] > 5


def test_traced_simulator_layers():
    # each traced simulator layer keeps its meaning: one CFL check per
    # step and one batched solve per constructor
    out = run_traced(SIM_SCRIPT.format(bench=os.path.join(ROOT, "bench")))
    assert out["absent"] == []
    calls = out["calls"]
    assert calls["simulator.step"] == 7
    assert calls["simulator.cfl_limit"] == 7
    assert calls["simulator.Simulator"] == calls["simulator.lu_solve"] == 1
