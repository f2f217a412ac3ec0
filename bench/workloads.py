"""Workload definitions: fixed configurations and seed-derived inputs.

Every input a workload hands to annuflow is drawn here from the seed; the
program itself never sees the seed. The same seed always gives the same
inputs (``random.Random`` seeded with a string is stable across processes
and Python versions).
"""

from __future__ import annotations

import math
import os
import random

#: the configuration of acceptance criterion 7: (a, b, alpha) = (1, 3, 5),
#: mu = 0.99 mu_c, N = 48, ntheta = 32, dt = 0.01
SATURATE = {"a": 1.0, "b": 3.0, "alpha": 5.0, "mu_over_mu_c": 0.99, "N": 48,
            "ntheta": 32, "dt": 0.01,
            # max|psi| is sampled every 100 steps; the run has reached its
            # plateau when one sample moves less than 1e-3 from the last
            "sample_every": 100, "plateau_rtol": 1e-3, "max_steps": 6000}

#: several alpha values share each b so the alpha * l scaling law can be checked
SWEEP = {"a": 1.0, "N": 96, "alpha_samples": 3, "b_samples": 3}

#: README command-line examples; the escape run uses criterion 11's settings
ESCAPE_ARGS = ["--eps-thr", "1e-2", "--dt", "0.005", "--ntheta", "8"]
README_SIMULATE = ["simulate", "--mu", "1.2", "--delta", "0.05", "--dt", "0.01",
                   "--steps", "4000", "-N", "48"]
CLI_SWEEP = {"alpha_samples": 2, "b_samples": 2}
CLI_PHASES = 4
#: default --ntheta of ``bifurcate``, which sets the field CSV size
BIFURCATE_NTHETA = 64
EIGEN_N = 48

#: distinct inputs drawn per run; operations cycle through them
N_INPUTS = 8


def _subrange(rng: random.Random, lo: float, hi: float, wmin: float,
              wmax: float) -> list[float]:
    width = rng.uniform(wmin, wmax)
    start = rng.uniform(lo, hi - width)
    return [start, start + width]


def make_inputs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"annuflow-bench:{workload}:{seed}")
    if workload == "saturate":
        # initial amplitude near the predicted sqrt(-lambda1/l), random phase
        return [{"amplitude_factor": rng.uniform(0.8, 1.2),
                 "phase": rng.uniform(0.0, 2.0 * math.pi)}
                for _ in range(4 * N_INPUTS)]
    if workload == "sweep":
        return [{"a": SWEEP["a"], "N": SWEEP["N"],
                 "alpha_samples": SWEEP["alpha_samples"],
                 "b_samples": SWEEP["b_samples"],
                 "alpha_range": _subrange(rng, 5.0, 15.0, 2.0, 5.0),
                 "b_range": _subrange(rng, 5.0, 15.0, 2.0, 5.0)}
                for _ in range(N_INPUTS)]
    if workload == "cli":
        rounds = []
        for _ in range(N_INPUTS):
            # log10 offsets cancel, so the total escape time (and so the
            # command's cost) does not depend on the seed
            u, v = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            side = rng.choice((-1.0, 1.0))
            rounds.append({
                "b": rng.uniform(2.0, 4.0), "alpha": rng.uniform(3.0, 8.0),
                "mu_over_mu_c": 1.0 + side * rng.uniform(0.05, 0.2),
                "deltas": [10.0 ** (-6 + u), 10.0 ** (-5 + v), 10.0 ** (-4 - u - v)],
                "sweep_alpha": _subrange(rng, 5.0, 15.0, 1.0, 4.0),
                "sweep_b": _subrange(rng, 5.0, 15.0, 1.0, 4.0)})
        return rounds
    raise ValueError(f"unknown workload {workload!r}")


def cli_commands(inputs: dict, workdir: str, mu_c) -> list[tuple[str, list[str], dict]]:
    """(label, argv, expect) for one round of README command-line examples.

    ``mu_c(a, b, alpha)`` gives the critical viscosity that the eigen
    input and its check are placed against. Writes the sweep config into
    ``workdir``.
    """
    b, alpha = inputs["b"], inputs["alpha"]
    muc = float(mu_c(1.0, b, alpha))
    mu = inputs["mu_over_mu_c"] * muc
    cfg = os.path.join(workdir, "sweep.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"alpha_min = {inputs['sweep_alpha'][0]!r}\n"
                 f"alpha_max = {inputs['sweep_alpha'][1]!r}\n"
                 f"alpha_samples = {CLI_SWEEP['alpha_samples']}\n"
                 f"b_min = {inputs['sweep_b'][0]!r}\n"
                 f"b_max = {inputs['sweep_b'][1]!r}\n"
                 f"b_samples = {CLI_SWEEP['b_samples']}\n")
    deltas = inputs["deltas"]
    return [
        ("mu_c", ["mu-c", "1", repr(b), repr(alpha), "--oracle"], {}),
        ("eigen", ["eigen", "1", repr(b), repr(alpha), repr(mu), "-N", str(EIGEN_N),
                   "--profile-csv", "profile.csv"],
         {"N": EIGEN_N, "profile_csv": "profile.csv", "mu": mu, "mu_c": muc}),
        ("bifurcate", ["bifurcate", "1", repr(b), repr(alpha), "--phases", str(CLI_PHASES)],
         {"phases": CLI_PHASES, "ntheta": BIFURCATE_NTHETA}),
        ("escape", ["simulate", "--mu", "1.2", "--escape", ",".join(map(repr, deltas))]
         + ESCAPE_ARGS, {"deltas": deltas}),
        ("sweep", ["sweep", cfg], dict(CLI_SWEEP)),
    ]
