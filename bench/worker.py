"""Workload process started by ``run.py``; not meant to be run by hand.

    python3 bench/worker.py <mode> <spec.json>

``mode`` is ``setup-<workload>`` (time a fresh import plus the workload's
set-up, then exit), ``saturate`` or ``sweep`` (run the workload for the
spec's seconds), or ``cli`` (the traced command-line run, which calls
``annuflow.cli.main`` in this process). The result is printed as one JSON
line. Every timed interval is bracketed by the speed reference of
``reference.py``. With ``trace`` set in the spec the run is split in two
halves, the first untraced and the second with span wrappers installed;
the ratio of their throughputs is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time

import checks
import spans
import workloads


def _env_info() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}


class Tally:
    """Rates of the measured intervals of one phase, raw and at nominal speed."""

    def __init__(self):
        self.attempted, self.ops, self.failures = 0, 0, []
        self.rates, self.raw_rates = [], []

    def add(self, work: float, raw_s: float, speed: float) -> None:
        self.raw_rates.append(work / raw_s)
        self.rates.append(work / (raw_s * speed))

    def result(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures,
                "ops_done": self.ops,
                "rate": statistics.median(self.rates) if self.rates else 0.0,
                "raw_rate": statistics.median(self.raw_rates) if self.raw_rates else 0.0}


# ------------------------------------------------------------------ saturate


def saturate_setup(af, cfg):
    a, b, alpha = cfg["a"], cfg["b"], cfg["alpha"]
    mu = cfg["mu_over_mu_c"] * af.mu_c_closed(af.validate(a, b, alpha, 1.0))
    params = af.validate(a, b, alpha, mu)
    grid = af.build_grid(a, b, cfg["N"])
    rep = af.bifurcation_report(params, mu, grid)
    eig = af.EigenResult(lambda1=rep.lambda1, psi1=rep.psi1, mu=mu)
    sim = af.Simulator(params, grid, mu=mu, dt=cfg["dt"], ntheta=cfg["ntheta"])
    return sim, eig, rep


def saturate_phase(af, ref, ctx, ops, start_op, seconds):
    """Saturation runs until ``seconds`` have passed; each runs to its
    plateau. One interval is ``sample_every`` steps plus one diagnostics."""
    cfg = workloads.SATURATE
    sim, eig, rep, predicted = ctx
    every = cfg["sample_every"]
    tally = Tally()
    t_end = time.perf_counter() + seconds
    while tally.ops == 0 or time.perf_counter() < t_end:
        op = ops[(start_op + tally.ops) % len(ops)]
        tally.ops += 1
        tally.attempted += 1
        state = sim.init_from_mode(eig, op["amplitude_factor"] * rep.amplitude)
        state = state.rotated(op["phase"])

        def chunk():
            nonlocal state
            for _ in range(every):
                state = sim.step(state)
            return sim.diagnostics(state).max_psi

        prev, m, converged = None, math.nan, False
        try:
            for _ in range(cfg["max_steps"] // every):
                m, raw, speed = ref.measure(chunk)
                tally.add(every, raw, speed)
                if prev is not None and abs(m - prev) <= cfg["plateau_rtol"] * m:
                    converged = True
                    break
                prev = m
            fails = checks.plateau(m, predicted, converged)
        except af.CFLViolation as exc:
            fails = [f"CFLViolation: {exc}"]
        if fails:
            tally.failures.append({"op": op, "failures": fails})
    return tally.result()


def run_saturate(af, ref, spec, phase):
    sim, eig, rep = saturate_setup(af, workloads.SATURATE)
    # criterion 7's prediction: max|psi_s| at the center-manifold amplitude
    predicted = float(abs(rep.psi_s(rep.amplitude, 128).values).max())
    ctx = (sim, eig, rep, predicted)
    return phase(lambda start, secs: saturate_phase(af, ref, ctx, spec["inputs"], start, secs),
                 lambda: saturate_setup(af, workloads.SATURATE))


# --------------------------------------------------------------------- sweep


def _sweep_spec(af, s):
    return af.SweepSpec(a=s["a"], N=s["N"], alpha_range=tuple(s["alpha_range"]),
                        alpha_samples=s["alpha_samples"],
                        b_range=tuple(s["b_range"]), b_samples=s["b_samples"])


def sweep_setup(af, specs):
    spec = _sweep_spec(af, specs[0])
    return [af.build_grid(spec.a, float(b), spec.N) for b in spec.bs()]


def sweep_oracle_failures(af, specs) -> dict:
    """mu_c oracle against the closed form at every grid point, untimed."""
    bad = {}
    for s in specs:
        spec = _sweep_spec(af, s)
        for alpha in spec.alphas():
            for b in spec.bs():
                p = af.validate(spec.a, float(b), float(alpha), 1.0)
                fails = checks.mu_c_pair(af.mu_c_closed(p), af.mu_c_oracle(p))
                if fails:
                    bad[(float(alpha), float(b))] = fails
    return bad


def sweep_phase(af, ref, specs, oracle_bad, start_op, seconds):
    """One interval is one ``sweep_l`` call; every row is an operation."""
    tally = Tally()
    t_end = time.perf_counter() + seconds
    while tally.ops == 0 or time.perf_counter() < t_end:
        spec = _sweep_spec(af, specs[(start_op + tally.ops) % len(specs)])
        tally.ops += 1
        rows, raw, speed = ref.measure(lambda: af.sweep_l(spec))
        tally.add(len(rows), raw, speed)
        tally.attempted += len(rows)
        recs = [{"alpha": r.alpha, "b": r.b, "status": r.status,
                 "l": math.nan if r.l is None else r.l} for r in rows]
        for rec, fails in zip(recs, checks.sweep_rows(recs)):
            fails = fails + oracle_bad.get((rec["alpha"], rec["b"]), [])
            if fails:
                tally.failures.append({"point": [rec["alpha"], rec["b"]],
                                       "failures": fails})
    return tally.result()


def run_sweep(af, ref, spec, phase):
    specs = spec["inputs"]
    oracle_bad = sweep_oracle_failures(af, specs)
    return phase(lambda start, secs: sweep_phase(af, ref, specs, oracle_bad, start, secs),
                 lambda: sweep_setup(af, specs))


# ----------------------------------------------------------------------- cli


def cli_phase(af, ref, rounds, workdir, start_op, seconds):
    """Rounds of README commands through ``annuflow.cli.main`` in-process;
    one interval is one command."""
    import annuflow.cli
    from annuflow.io import validate_against_schema

    def mu_c(a, b, alpha):
        return af.mu_c_closed(af.validate(a, b, alpha, 1.0))

    tally = Tally()
    t_end = time.perf_counter() + seconds
    while tally.ops == 0 or time.perf_counter() < t_end:
        inputs = rounds[(start_op + tally.ops) % len(rounds)]
        tally.ops += 1
        for label, argv, expect in workloads.cli_commands(inputs, workdir, mu_c):
            outdir = os.path.join(workdir, label)
            shutil.rmtree(outdir, ignore_errors=True)
            os.makedirs(outdir)
            os.environ["ANNUFLOW_OUTDIR"] = outdir
            buf = io.StringIO()

            def command():
                try:
                    return annuflow.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the command line
                    return exc.code

            with contextlib.redirect_stdout(buf):
                code, raw, speed = ref.measure(command)
            tally.add(1, raw, speed)
            tally.attempted += 1
            fails = checks.cli_command(label, code, buf.getvalue(), outdir, expect,
                                       validate_against_schema)
            if fails:
                tally.failures.append({"command": argv, "failures": fails})
    return tally.result()


def run_cli(af, ref, spec, phase):
    return phase(lambda start, secs: cli_phase(af, ref, spec["inputs"], spec["workdir"],
                                               start, secs),
                 lambda: None)


# ---------------------------------------------------------------------- main


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import annuflow.cli  # noqa: F401  (what every command pays)
    import annuflow as af
    import_s = time.perf_counter() - t0

    if mode.startswith("setup-"):
        workload = mode.split("-", 1)[1]
        if workload == "saturate":
            saturate_setup(af, workloads.SATURATE)
        elif workload == "sweep":
            sweep_setup(af, spec["inputs"])
        print(json.dumps({"setup_s": time.perf_counter() - t0, "import_s": import_s,
                          "env": _env_info()}))
        return 0

    import reference

    ref = reference.in_process()
    seconds, trace = spec["seconds"], spec["trace"]

    def phase(run, traced_setup):
        """Untraced run, or untraced then traced halves under --trace 1."""
        if not trace:
            return run(0, seconds), None
        plain = run(0, seconds / 2.0)
        rec = spans.Recorder()
        absent = spans.install(rec)
        traced_setup()
        res = run(plain["ops_done"], seconds / 2.0)
        res["attempted"] += plain["attempted"]
        res["failures"] += plain["failures"]
        overhead = plain["rate"] / res["rate"] - 1.0
        rec.write(spec["spans_path"])
        return res, spans.layer_metrics(rec, absent, import_s=import_s,
                                        overhead_frac=overhead)

    runner = {"saturate": run_saturate, "sweep": run_sweep, "cli": run_cli}[mode]
    res, layers = runner(af, ref, spec, phase)
    res["layers"] = layers
    res["speed"] = {"median": statistics.median(ref.readings),
                    "min": min(ref.readings), "max": max(ref.readings)}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
