#!/usr/bin/env python3
"""Self-test of the benchmark harness at minimal size.

    python3 bench/selftest.py

Checks that ``BENCHMARK.json`` and ``layer_map.json`` name the same
per-layer metrics, that a one-second run of every workload prints every
named metric with its unit (untraced and traced), that planted wrong
outputs are counted as failed, and that the harness refuses to run without
the program's sources. Takes about two minutes; writes only under
``.bench_out/``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import checks
import run
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text())
os.environ.update(run.THREAD_ENV)
sys.path.insert(0, str(ROOT / "src"))
#: stands in for a speed reference where only the counting is under test
UNTIMED = SimpleNamespace(measure=lambda fn: (fn(), 1.0, 1.0))


def harness(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_layer_map():
    names = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    mapped = [(m["name"], m["unit"], m["better"]) for m in LAYER_MAP["per_layer"]]
    assert names == mapped, "BENCHMARK.json per_layer differs from layer_map.json"
    assert set(LAYER_MAP["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == {"saturate", "sweep", "cli"}


def test_every_metric_emitted():
    # the untraced run goes last: the cli check below reads its outputs
    for workload in ("saturate", "sweep", "cli"):
        for trace, entries in ((1, SPEC["per_layer"]), (0, SPEC["end_to_end"])):
            proc = harness(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["attempted"] >= 1 and isinstance(res["failed"], int)
            assert res["correct"] and res["failed"] == 0, (workload, trace, res)
            want = {m["name"]: m["unit"] for m in entries}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {set(got) ^ set(want)}"
            for k, v in res["metrics"].items():
                assert math.isfinite(v["value"]), (workload, k, v)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")


def test_planted_saturation_counted():
    class Sim:
        def __init__(self, amp):
            self.amp = amp

        def init_from_mode(self, eig, delta):
            return SimpleNamespace(rotated=lambda phase: None)

        def step(self, state):
            return state

        def diagnostics(self, state):
            return SimpleNamespace(max_psi=self.amp)

    af = SimpleNamespace(CFLViolation=RuntimeError)
    ops = workloads.make_inputs("saturate", 1)
    rep = SimpleNamespace(amplitude=1.0)
    good = worker.saturate_phase(af, UNTIMED, (Sim(1.02), None, rep, 1.0), ops, 0, 0.0)
    bad = worker.saturate_phase(af, UNTIMED, (Sim(1.5), None, rep, 1.0), ops, 0, 0.0)
    assert good["attempted"] == 1 and not good["failures"]
    assert bad["attempted"] == 1 and len(bad["failures"]) == 1


def test_planted_sweep_row_counted():
    import annuflow as af

    spec = workloads.make_inputs("sweep", 1)[:1]
    spec[0]["N"] = 32
    rows = af.sweep_l(worker._sweep_spec(af, spec[0]))
    planted = list(rows)
    planted[4] = type(rows[4])(**{**vars(rows[4]), "l": rows[4].l * (1 + 1e-3)})
    stub = SimpleNamespace(SweepSpec=af.SweepSpec, sweep_l=lambda s: planted)
    res = worker.sweep_phase(stub, UNTIMED, spec, {}, 0, 0.0)
    assert res["attempted"] == len(rows)
    assert [f["point"] for f in res["failures"]] == [[planted[4].alpha, planted[4].b]]
    assert checks.mu_c_pair(1.0, 1.0 + 1e-6)
    assert not checks.mu_c_pair(1.0, 1.0 + 1e-12)


def test_planted_cli_outputs_counted():
    """Real outputs of the one-second cli run pass; corrupted copies fail."""
    from annuflow.io import validate_against_schema

    work = ROOT / ".bench_out" / "cli"
    rounds = workloads.make_inputs("cli", 7)
    cmds = {label: expect for label, _, expect in workloads.cli_commands(
        rounds[0], str(OUT), lambda a, b, al: _mu_c(a, b, al))}

    def outcome(label, mutate=None):
        outdir = OUT / label
        shutil.rmtree(outdir, ignore_errors=True)
        shutil.copytree(work / label, outdir)
        doc = json.loads((work / f"{label}.out").read_text())
        if mutate:
            mutate(doc, outdir)
        return checks.cli_command(label, 0, json.dumps(doc), str(outdir), cmds[label],
                                  validate_against_schema)

    for label in cmds:
        assert outcome(label) == [], (label, outcome(label))

    def set_key(key, factor):
        def mutate(doc, outdir):
            doc[key] *= factor
        return mutate

    assert outcome("mu_c", set_key("mu_c_oracle", 1 + 1e-6))
    assert outcome("eigen", set_key("lambda1", -1.0))
    assert outcome("bifurcate", lambda doc, d: (d / "field_phase3.svg").unlink())
    assert outcome("bifurcate", set_key("amplitude", 1.01))
    assert outcome("escape", set_key("slope", 1.1))
    assert outcome("sweep", set_key("rows", 2))
    assert checks.cli_command("mu_c", 3, "{}", str(OUT), {}, validate_against_schema)
    for error, status in (("CFLViolation", "known"), ("SolverFailure", "failed")):
        got, fails = checks.readme_simulate(5, json.dumps({"error": error, "message": "x"}),
                                            str(OUT), validate_against_schema)
        assert got == status and fails, (error, got, fails)


def _mu_c(a, b, alpha):
    from annuflow.critical import mu_c_closed
    from annuflow.domain import validate
    return float(mu_c_closed(validate(a, b, alpha, 1.0)))


def test_refuses_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = harness("sweep", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    tests = [test_spec_matches_layer_map, test_every_metric_emitted,
             test_planted_saturation_counted, test_planted_sweep_row_counted,
             test_planted_cli_outputs_counted, test_refuses_without_sources]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
