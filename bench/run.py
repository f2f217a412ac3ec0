#!/usr/bin/env python3
"""annuflow benchmark.

    python3 bench/run.py --workload {saturate,sweep,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is used from ``src/``
without installing it. Workloads (see ``BENCHMARK.json`` for why each was
chosen, ``layer_map.json`` for how each metric is defined per workload):

- ``saturate``: nonlinear ``Simulator`` runs at criterion 7's
  configuration, each until max|psi| reaches its plateau;
- ``sweep``: ``sweep_l`` over seed-drawn 3 x 3 (alpha, b) grids at N = 96;
- ``cli``: rounds of five README command-line examples, each as a fresh
  ``python -m annuflow.cli`` process, plus the README ``simulate``
  example once per run, whose known CFL stop is recorded in the result
  file instead of being counted.

The run pins itself and its children to one core and gives them
single-threaded BLAS. Timings are corrected for machine-speed drift with
the references of ``reference.py``. With ``--trace 0`` the last stdout
line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Details (failures, environment,
``src/`` line count, per-command times, timings before speed correction)
go to ``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up is timed in this many fresh processes and the median reported
SETUP_PROBES = 9
#: any single child process is killed after this long
CHILD_TIMEOUT_S = 120
#: with 2 OpenBLAS threads on a 2-core machine, leading_eigenpair at N = 96
#: runs 2-3x slower than with one, and the timing depends on what else runs
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CLI_LABELS = ("mu_c", "eigen", "bifurcate", "escape", "sweep")


class Child:
    def __init__(self, code: int, wall: float, maxrss_mib: float, stdout: str,
                 stderr: str):
        self.code, self.wall, self.maxrss_mib = code, wall, maxrss_mib
        self.stdout, self.stderr = stdout, stderr


def run_child(argv: list[str], *, cwd: Path, env: dict, logs: Path) -> Child:
    """Run one process to completion; output goes through files (no pipe
    can fill), and ``wait4`` gives the child's own peak RSS."""
    out, err = logs.with_suffix(".out"), logs.with_suffix(".err")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out.read_text(), err.read_text())


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra or {})
    return env


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_worker(mode: str, spec: dict, workdir: Path) -> tuple[Child, dict]:
    spec_path = workdir / f"{mode}.spec.json"
    spec_path.write_text(json.dumps(spec))
    child = run_child([sys.executable, str(BENCH / "worker.py"), mode, str(spec_path)],
                      cwd=ROOT, env=child_env(), logs=workdir / mode)
    if child.code != 0:
        raise RuntimeError(f"worker {mode} exited {child.code}:\n{child.stderr[-2000:]}")
    return child, last_json(child.stdout)


def measure_setup(workload: str, inputs: list, workdir: Path, ref) -> dict:
    """Set-up time of SETUP_PROBES fresh worker processes, each bracketed
    by the speed reference."""
    nominal, raw = [], []
    for _ in range(SETUP_PROBES):
        (_, res), _, speed = ref.measure(
            lambda: run_worker(f"setup-{workload}", {"inputs": inputs}, workdir))
        raw.append(res["setup_s"])
        nominal.append(res["setup_s"] * speed)
    return {"median": statistics.median(nominal), "raw_median": statistics.median(raw),
            "samples": nominal, "env": res["env"]}


def run_cli(inputs: list, seconds: float, workdir: Path, ref) -> dict:
    """README commands as fresh processes, in rounds, for ``seconds``; each
    command's wall time is bracketed by the speed reference."""
    sys.path.insert(0, str(SRC))
    from annuflow.critical import mu_c_closed
    from annuflow.domain import validate
    from annuflow.io import validate_against_schema

    def mu_c(a, b, alpha):
        return mu_c_closed(validate(a, b, alpha, 1.0))

    def fresh(label: str, argv: list[str]) -> tuple[Child, Path, float]:
        outdir = workdir / label
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        child, _, speed = ref.measure(lambda: run_child(
            [sys.executable, "-m", "annuflow.cli"] + argv, cwd=outdir,
            env=child_env({"ANNUFLOW_OUTDIR": str(outdir)}), logs=workdir / label))
        return child, outdir, speed

    # the README simulate example stops on a CFL violation at the commit
    # this benchmark was defined on (ROADMAP item 4). It runs once per run
    # and its time is in no metric. That recorded stop is kept in the
    # result file, not counted as an operation; a success counts as one
    # passed operation and any other outcome as a failed one
    child, outdir, _ = fresh("readme_simulate", workloads.README_SIMULATE)
    status, fails = checks.readme_simulate(child.code, child.stdout, str(outdir),
                                           validate_against_schema)
    readme = {"status": status, "exit": child.code, "wall_s": child.wall,
              "failures": fails}
    failures = ([{"command": workloads.README_SIMULATE, "failures": fails}]
                if status == "failed" else [])
    attempted = 0 if status == "known" else 1

    walls, raw, rss = defaultdict(list), defaultdict(list), []
    rounds = 0
    t_end = time.perf_counter() + seconds
    # the first round always completes; after it, the run stops at the
    # first command that would start past the deadline
    while rounds == 0 or time.perf_counter() < t_end:
        for label, argv, expect in workloads.cli_commands(inputs[rounds % len(inputs)],
                                                          str(workdir), mu_c):
            if rounds and time.perf_counter() >= t_end:
                break
            child, outdir, speed = fresh(label, argv)
            attempted += 1
            fails = checks.cli_command(label, child.code, child.stdout, str(outdir),
                                       expect, validate_against_schema)
            if fails:
                failures.append({"command": argv, "failures": fails,
                                 "stderr": child.stderr[-500:]})
            else:
                walls[label].append(child.wall * speed)
                raw[label].append(child.wall)
                rss.append(child.maxrss_mib)
        rounds += 1
    done = [label for label in CLI_LABELS if walls[label]]

    def rate(times):
        return len(done) / sum(statistics.median(times[k]) for k in done) if done else 0.0

    return {"attempted": attempted, "failures": failures, "rounds": rounds,
            "rate": rate(walls), "raw_rate": rate(raw),
            "peak_rss_mib": max(rss) if rss else 0.0,
            "cmd_wall_s": {k: {"median": statistics.median(walls[k]),
                               "raw_median": statistics.median(raw[k]),
                               "samples": walls[k]} for k in done},
            "readme_simulate": readme}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "annuflow").rglob("*.py"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("saturate", "sweep", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "annuflow" / "__init__.py").is_file():
        print(f"bench: no annuflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # one core for this process and its children, so that the speed
    # reference is read on the core the measured work runs on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ.update(THREAD_ENV)  # before numpy is imported here
    import reference

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "src_lines": src_lines(), "pinned_cpu": cpu,
            "inputs": inputs}

    if args.trace:
        spec = {"inputs": inputs, "seconds": args.seconds, "trace": 1,
                "workdir": str(workdir / "traced"),
                "spans_path": str(workdir / f"spans-seed{args.seed}.tsv")}
        os.makedirs(spec["workdir"])
        _, res = run_worker(args.workload, spec, workdir)
        metrics = res.pop("layers")
        info["spans"] = spec["spans_path"]
    else:
        ref = reference.fresh_process()
        setup = measure_setup(args.workload, inputs, workdir, ref)
        info["env"] = setup.pop("env")
        info["setup_s"] = setup
        if args.workload == "cli":
            res = run_cli(inputs, args.seconds, workdir, ref)
            rss = res.pop("peak_rss_mib")
        else:
            child, res = run_worker(args.workload, {"inputs": inputs, "seconds": args.seconds,
                                                    "trace": 0}, workdir)
            rss = child.maxrss_mib
        metrics = {"setup_s": metric(setup["median"], "s"),
                   "ops_per_s": metric(res["rate"], "1/s"),
                   "peak_rss_mib": metric(rss, "MiB")}

    failed = len(res["failures"])
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
              "metrics": metrics}
    info.update(res)
    info["result"] = result
    path = workdir.parent / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(info, indent=1, default=str))
    if failed:
        print(f"bench: {failed} of {res['attempted']} operations failed, first:",
              file=sys.stderr)
    for f in res["failures"][:5]:
        print(f"bench: FAILED {json.dumps(f, default=str)}", file=sys.stderr)
    print(f"bench: details in {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
