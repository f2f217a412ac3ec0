"""Command-line interface.

Subcommands: mu-c, eigen, bifurcate, simulate, sweep. Each command writes
its files into the output directory, among them a manifest sufficient to
reproduce the run, and returns its report; :func:`main` prints exactly one
JSON document: the report, or the error document if anything failed,
writing the files included.

Exit codes: 0 success, 2 invalid input, 3 solver failure (a non-finite
simulator state included), 4 degenerate or nonexistent bifurcation branch,
5 CFL violation. Each error class in :mod:`annuflow.errors` carries its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple

import numpy as np

from . import __version__
from .bifurcation import (DEFAULT_MU_OFFSET, bifurcation_report, field_lattices,
                          leading_eigenpair)
from .contours import field_svg
from .critical import mu_c_closed, mu_c_oracle
from .domain import validate
from .errors import AnnuflowError, InvalidPhysics, NoBranch
from .io import (json_text, read_config, write_csv, write_field_csv, write_json,
                 write_manifest, write_trajectory_csv)
from .simulator import Simulator, escape_experiment, escape_slope, fit_growth_rate
from .spectral import build_grid
from .sweep import SWEEP_HEADER, SweepSpec, sweep_l


def _inputs(args, **resolved) -> dict:
    """The manifest's inputs: the parsed arguments with the values resolved
    from their defaults in place, without the command and the outdir."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "outdir", "func")} | resolved


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("ANNUFLOW_OUTDIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _finish(out: str, name: str, doc: dict, command: str, inputs: dict,
            outputs: list[str]) -> dict:
    """Write the report as name.json and the manifest; return the report."""
    path = os.path.join(out, f"{name}.json")
    write_json(path, doc)
    write_manifest(os.path.join(out, "manifest.json"), command, inputs,
                   outputs + [path])
    return doc


# ------------------------------------------------------------- commands


def cmd_mu_c(args) -> dict:
    params = validate(args.a, args.b, args.alpha)
    doc = {"a": params.a, "b": params.b, "alpha": params.alpha,
           "mu_c_closed": mu_c_closed(params)}
    if args.oracle:
        doc["mu_c_oracle"] = mu_c_oracle(params)
        doc["discrepancy"] = (abs(doc["mu_c_oracle"] - doc["mu_c_closed"])
                              / doc["mu_c_closed"])
    return _finish(_outdir(args), "mu_c", doc, "mu-c", _inputs(args), [])


def cmd_eigen(args) -> dict:
    params = validate(args.a, args.b, args.alpha, args.mu)
    grid = build_grid(params.a, params.b, args.N)
    eig = leading_eigenpair(params, args.mu, grid)
    profile = list(zip(grid.nodes.tolist(), eig.psi1.tolist()))
    doc = {"a": params.a, "b": params.b, "alpha": params.alpha, "mu": args.mu,
           "N": args.N, "lambda1": eig.lambda1,
           "psi1_samples": [{"r": r, "psi": v} for r, v in profile]}
    out = _outdir(args)
    outputs = []
    if args.profile_csv:
        path = os.path.join(out, args.profile_csv)
        write_csv(path, ["r", "psi1"], profile)
        outputs.append(path)
    return _finish(out, "eigen", doc, "eigen", _inputs(args), outputs)


def cmd_bifurcate(args) -> dict:
    if args.phases < 0:
        raise InvalidPhysics(f"--phases must be >= 0, got {args.phases}")
    params = validate(args.a, args.b, args.alpha, args.mu)
    muc = mu_c_closed(params)
    mu = args.mu if args.mu is not None else muc * (1.0 + DEFAULT_MU_OFFSET)
    grid = build_grid(params.a, params.b, args.N)
    report = bifurcation_report(params, mu, grid)
    if report.amplitude is None:
        raise NoBranch(
            f"no bifurcated branch at mu={mu}: lambda1={report.lambda1} and "
            f"l={report.l} have the same sign; the {report.classification.value} "
            f"branch lives on the other side of mu_c={muc}")
    doc = {"a": params.a, "b": params.b, "alpha": params.alpha, "mu": mu,
           "mu_c": muc, "N": args.N, "lambda1": report.lambda1, "l": report.l,
           "classification": report.classification.value,
           "amplitude": report.amplitude, "phases": args.phases}
    out = _outdir(args)
    outputs = []
    for j in range(args.phases):
        planes = report.coeffs(report.amplitude * np.exp(2j * np.pi * j / args.phases))
        fields = field_lattices(planes, grid, args.ntheta)
        base = os.path.join(out, f"field_phase{j}")
        write_field_csv(base + ".csv", fields, grid.nodes)
        with open(base + ".svg", "w") as fh:
            fh.write(field_svg(fields[0], grid.nodes))
        outputs += [base + ".csv", base + ".svg"]
    return _finish(out, "bifurcate", doc, "bifurcate", _inputs(args, mu=mu), outputs)


def _boolean(text: str) -> bool:
    """1/0, true/false or yes/no in any case; anything else is a ValueError."""
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")
    return word in ("1", "true", "yes")


#: simulate's flags and --config keys: key -> (cast, default); mu defaults to 2 mu_c
SIM_INPUTS = {"a": (float, 1.0), "b": (float, 3.0), "alpha": (float, 5.0),
              "mu": (float, None), "N": (int, 48), "ntheta": (int, 32),
              "dt": (float, 0.01), "steps": (int, 1000), "delta": (float, 1e-3),
              "nonlinear": (_boolean, True), "sample_every": (int, 10)}

#: simulate flags that each run does not read
UNREAD = {"escape": ("steps", "delta", "sample_every", "snapshot"), "time": ("eps_thr",)}
#: the escape threshold on ||v|| without --eps-thr
ESCAPE_EPS_THR = 1e-2


def _sim_config(args) -> dict:
    """The simulate inputs: defaults, then the config file, then the flags."""
    cfg = {k: default for k, (_, default) in SIM_INPUTS.items()}
    if args.config:
        cfg.update(read_config(args.config, {k: c for k, (c, _) in SIM_INPUTS.items()}))
    cfg.update((k, getattr(args, k)) for k in SIM_INPUTS
               if getattr(args, k, None) is not None)
    if args.linear:
        cfg["nonlinear"] = False
    return cfg


def cmd_simulate(args) -> dict:
    run = "escape" if args.escape else "time"
    unread = [k for k in UNREAD[run] if getattr(args, k) is not None]
    if unread:
        raise InvalidPhysics(f"the {run} run does not read " + ", ".join(
            "--" + k.replace("_", "-") for k in unread))
    cfg = _sim_config(args)
    params = validate(cfg["a"], cfg["b"], cfg["alpha"], cfg["mu"])
    if cfg["mu"] is None:
        cfg["mu"] = 2.0 * mu_c_closed(params)
    grid = build_grid(params.a, params.b, cfg["N"])
    sim = Simulator(params, grid, mu=cfg["mu"], dt=cfg["dt"], ntheta=cfg["ntheta"],
                    nonlinear=cfg["nonlinear"])
    eig = leading_eigenpair(params, cfg["mu"], grid)
    out = _outdir(args)

    if args.escape:
        deltas = [float(s) for s in args.escape.split(",")]
        eps_thr = ESCAPE_EPS_THR if args.eps_thr is None else args.eps_thr
        table = escape_experiment(sim, eig, deltas, eps_thr=eps_thr)
        doc = {"mu": cfg["mu"], "lambda1": eig.lambda1, "eps_thr": eps_thr,
               "escape_times": [{"delta": d, "T": t} for d, t in table],
               "slope": escape_slope(table),
               "inverse_lambda1": 1.0 / eig.lambda1}
        read = {k: v for k, v in cfg.items() if k not in UNREAD["escape"]}
        return _finish(out, "escape", doc, "simulate",
                       read | {"escape": args.escape, "eps_thr": eps_thr}, [])

    state, diags = sim.run(sim.init_from_mode(eig, cfg["delta"]), cfg["steps"],
                           cfg["sample_every"])
    residuals = [d.energy_residual for d in diags if d.energy_residual is not None]
    doc = {"a": params.a, "b": params.b, "alpha": params.alpha, "mu": cfg["mu"],
           "N": cfg["N"], "ntheta": cfg["ntheta"], "dt": cfg["dt"],
           "steps": cfg["steps"], "delta": cfg["delta"],
           "nonlinear": cfg["nonlinear"], "final_t": state.t,
           "final_E3": diags[-1].E3, "final_max_psi": diags[-1].max_psi,
           "growth_rate": fit_growth_rate(diags),
           "energy_residual_max": max(residuals, default=None)}
    traj = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj, diags)
    outputs = [traj]
    if args.snapshot:
        snap = os.path.join(out, "snapshot.csv")
        write_field_csv(snap, field_lattices(state.planes, grid, cfg["ntheta"]), grid.nodes)
        outputs.append(snap)
    return _finish(out, "simulate", doc, "simulate",
                   cfg | {"snapshot": bool(args.snapshot)}, outputs)


def _sweep_spec(path: str) -> SweepSpec:
    """The spec file as a SweepSpec; an end missing from a range keeps
    SweepSpec's default."""
    vals = read_config(path, {
        "a": float, "alpha_min": float, "alpha_max": float, "alpha_samples": int,
        "b_min": float, "b_max": float, "b_samples": int, "mu_offset": float,
        "N": int})
    kwargs = {k: v for k, v in vals.items() if not k.endswith(("_min", "_max"))}
    for axis in ("alpha", "b"):
        lo, hi = getattr(SweepSpec, f"{axis}_range")
        kwargs[f"{axis}_range"] = (vals.get(f"{axis}_min", lo), vals.get(f"{axis}_max", hi))
    return SweepSpec(**kwargs)


def cmd_sweep(args) -> dict:
    spec = _sweep_spec(args.spec)
    out = _outdir(args)
    csv_path = os.path.join(out, "sweep.csv")
    man_path = os.path.join(out, "sweep_manifest.json")
    if args.resume and os.path.exists(csv_path) and os.path.exists(man_path):
        with open(man_path) as fh:
            if json.load(fh).get("inputs") == spec.to_dict():
                return {"status": "resume-noop", "csv": csv_path}
    rows = sweep_l(spec)
    write_csv(csv_path, SWEEP_HEADER, map(astuple, rows))
    write_manifest(man_path, "sweep", spec.to_dict(), [csv_path])
    classes = sorted({r.classification for r in rows if r.status == "ok"})
    return {"rows": len(rows), "classes_present": classes, "csv": csv_path}


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="annuflow",
        description="Stability and bifurcation toolkit for slip-driven annulus flow")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_outdir(sp):
        sp.add_argument("-o", "--outdir", default=None,
                        help="output directory (default: $ANNUFLOW_OUTDIR or .)")

    sp = sub.add_parser("mu-c", help="critical viscosity")
    for name in ("a", "b", "alpha"):
        sp.add_argument(name, type=float)
    sp.add_argument("--oracle", action="store_true",
                    help="also compute the determinant-root cross-check")
    add_outdir(sp)
    sp.set_defaults(func=cmd_mu_c)

    sp = sub.add_parser("eigen", help="leading eigenpair")
    for name in ("a", "b", "alpha"):
        sp.add_argument(name, type=float)
    sp.add_argument("mu", type=float)
    sp.add_argument("-N", type=int, default=64)
    sp.add_argument("--profile-csv", default=None,
                    help="also dump the radial profile to this CSV filename")
    add_outdir(sp)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("bifurcate", help="center-manifold reduction and states")
    for name in ("a", "b", "alpha"):
        sp.add_argument(name, type=float)
    sp.add_argument("--mu", type=float, default=None,
                    help=f"viscosity (default: mu_c * (1 + {DEFAULT_MU_OFFSET:g}))")
    sp.add_argument("--phases", type=int, default=0,
                    help="emit this many bifurcated fields at phases 2 pi j / k")
    sp.add_argument("-N", type=int, default=48)
    sp.add_argument("--ntheta", type=int, default=64)
    add_outdir(sp)
    sp.set_defaults(func=cmd_bifurcate)

    sp = sub.add_parser("simulate", help="nonlinear time integration")
    sp.add_argument("--config", default=None, help="key=value config file")
    for key, (cast, _) in SIM_INPUTS.items():
        if key != "nonlinear":
            flag = "-N" if key == "N" else "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, type=cast, default=None)
    sp.add_argument("--linear", action="store_true",
                    help="disable the nonlinear term")
    sp.add_argument("--snapshot", action="store_true", default=None,
                    help="dump the final field as CSV")
    sp.add_argument("--escape", default=None,
                    help="comma-separated deltas for an escape-time experiment")
    sp.add_argument("--eps-thr", dest="eps_thr", type=float, default=None,
                    help=f"escape threshold on ||v|| (default {ESCAPE_EPS_THR:g})")
    add_outdir(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="(alpha, b) classification sweep")
    sp.add_argument("spec", help="key=value sweep spec file")
    sp.add_argument("--resume", action="store_true",
                    help="no-op if the same spec already completed here")
    add_outdir(sp)
    sp.set_defaults(func=cmd_sweep)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args), 0
    except (AnnuflowError, ValueError, OSError) as exc:
        # ValueError and OSError come from malformed config files and casts,
        # and from output files that cannot be written
        doc = {"error": type(exc).__name__, "message": str(exc)}
        code = getattr(exc, "exit_code", 2)
    sys.stdout.write(json_text(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
