"""Correctness checks for the benchmark workloads.

Each check takes plain data (numbers, parsed JSON documents, paths) and
returns a list of failure messages; an empty list means the output is
correct. Schema validation is passed in as a callable so that these
functions import nothing from the program under test and can be fed
deliberately wrong outputs by ``selftest.py``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

#: plateau max|psi| must be within this fraction of the center-manifold
#: prediction (the tolerance of acceptance criterion 7)
PLATEAU_TOL = 0.10
#: at fixed a, alpha * l depends on b/a only. Values computed at N = 48 or
#: 64 agree to 1e-7, but at N = 96 float64 roundoff in l spreads them:
#: over 1,800 sweep points drawn as the sweep workload draws them, the
#: spread had median 4e-7, 99th percentile 2.6e-5 and maximum 3.6e-5. The
#: tolerance sits above that floor; an error of 1e-3 in l still fails it
SCALING_RTOL = 2e-4
#: closed-form and determinant-oracle mu_c must agree to this relative error
MU_C_RTOL = 1e-8
#: escape-time slope against ln(1/delta) must match 1/lambda1 this closely
ESCAPE_RTOL = 0.05


def plateau(max_psi: float, predicted: float, converged: bool) -> list[str]:
    """Saturated amplitude of one simulator run against the prediction."""
    out = []
    if not converged:
        out.append("max|psi| did not reach a plateau within the step cap")
    if not (math.isfinite(max_psi) and abs(max_psi / predicted - 1.0) <= PLATEAU_TOL):
        out.append(f"plateau max|psi| {max_psi!r} not within {PLATEAU_TOL:.0%} "
                   f"of the prediction {predicted!r}")
    return out


def sweep_rows(rows: list[dict]) -> list[list[str]]:
    """Per-row failures of one sweep: status must be ok, and alpha * l must
    agree across the alpha values that share a b."""
    out = [[] if r["status"] == "ok" else [f"status {r['status']!r}"] for r in rows]
    by_b = defaultdict(list)
    for i, r in enumerate(rows):
        if r["status"] == "ok":
            by_b[r["b"]].append(i)
    for b, idx in by_b.items():
        scaled = [rows[i]["alpha"] * rows[i]["l"] for i in idx]
        ref = sorted(scaled)[len(scaled) // 2]
        for i, v in zip(idx, scaled):
            if not (math.isfinite(v) and abs(v - ref) <= SCALING_RTOL * abs(ref)):
                out[i].append(f"alpha*l = {v!r} at b={b} disagrees with {ref!r}")
    return out


def mu_c_pair(closed: float, oracle: float) -> list[str]:
    if abs(oracle - closed) <= MU_C_RTOL * abs(closed):
        return []
    return [f"mu_c oracle {oracle!r} differs from closed form {closed!r}"]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def cli_command(label: str, code: int, stdout: str, outdir: str, expect: dict,
                validate) -> list[str]:
    """Check one CLI command's exit code, stdout document and artifacts.

    ``expect`` carries the inputs the command was given (and mu_c where the
    check needs it); ``validate(doc, schema_name)`` raises on a document
    that does not match the shipped schema.
    """
    if code != 0:
        return [f"exit code {code}: {stdout.strip()[:200]}"]
    try:
        doc = json.loads(stdout)
        return _CLI_CHECKS[label](doc, outdir, expect, validate)
    except Exception as exc:  # any malformed output is a failed check
        return [f"{type(exc).__name__}: {exc}"]


def _manifest(outdir, validate, name="manifest.json"):
    validate(_load_json(os.path.join(outdir, name)), "manifest")


def _mu_c(doc, outdir, expect, validate):
    validate(doc, "mu_c")
    _manifest(outdir, validate)
    return mu_c_pair(doc["mu_c_closed"], doc["mu_c_oracle"])


def _eigen(doc, outdir, expect, validate):
    validate(doc, "eigen")
    _manifest(outdir, validate)
    out = []
    if len(doc["psi1_samples"]) != expect["N"] + 1:
        out.append(f"{len(doc['psi1_samples'])} profile samples for N={expect['N']}")
    if len(_csv_rows(os.path.join(outdir, expect["profile_csv"]))) != expect["N"] + 2:
        out.append("profile CSV row count does not match the grid")
    # the rest state is unstable exactly below the critical viscosity
    if (doc["lambda1"] > 0) != (expect["mu"] < expect["mu_c"]):
        out.append(f"lambda1={doc['lambda1']!r} has the wrong sign at "
                   f"mu/mu_c={expect['mu'] / expect['mu_c']!r}")
    return out


def _bifurcate(doc, outdir, expect, validate):
    validate(doc, "bifurcate")
    _manifest(outdir, validate)
    out = []
    files = sorted(os.listdir(outdir))
    for ext in ("csv", "svg"):
        got = [f for f in files if f.startswith("field_phase") and f.endswith(ext)]
        if len(got) != expect["phases"]:
            out.append(f"{len(got)} {ext.upper()} files for {expect['phases']} phases")
    rows = _csv_rows(os.path.join(outdir, "field_phase0.csv"))
    if len(rows) != 1 + (doc["N"] + 1) * expect["ntheta"]:
        out.append(f"field CSV has {len(rows)} rows")
    with open(os.path.join(outdir, "field_phase0.svg")) as fh:
        svg = fh.read()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
            and "<line" in svg):
        out.append("field SVG is not a contour document")
    if doc["classification"] != "Supercritical":
        out.append(f"classification {doc['classification']!r}")
    amp = math.sqrt(-doc["lambda1"] / doc["l"])
    if not abs(doc["amplitude"] - amp) <= 1e-12 * amp:
        out.append(f"amplitude {doc['amplitude']!r} != sqrt(-lambda1/l) = {amp!r}")
    return out


def _escape(doc, outdir, expect, validate):
    _manifest(outdir, validate)
    out = []
    times = [e["T"] for e in doc["escape_times"]]
    if [e["delta"] for e in doc["escape_times"]] != expect["deltas"]:
        out.append("escape table does not list the requested deltas")
    if not all(t1 < t0 for t0, t1 in zip(times, times[1:])):
        out.append(f"escape times {times} do not fall as delta grows")
    target = 1.0 / doc["lambda1"]
    if not abs(doc["slope"] - target) <= ESCAPE_RTOL * target:
        out.append(f"escape slope {doc['slope']!r} not within "
                   f"{ESCAPE_RTOL:.0%} of 1/lambda1 = {target!r}")
    return out


def _sweep(doc, outdir, expect, validate):
    out = []
    n = expect["alpha_samples"] * expect["b_samples"]
    if doc["rows"] != n:
        out.append(f"{doc['rows']} rows for a {n}-point grid")
    rows = _csv_rows(os.path.join(outdir, "sweep.csv"))
    header, body = rows[0], rows[1:]
    recs = [dict(zip(header, r)) for r in body]
    if len(recs) != n:
        out.append(f"sweep CSV has {len(recs)} rows")
    recs = [{"alpha": float(r["alpha"]), "b": float(r["b"]), "status": r["status"],
             "l": float(r["l"]) if r["l"] else float("nan")} for r in recs]
    out += [m for fails in sweep_rows(recs) for m in fails]
    if not os.path.exists(os.path.join(outdir, "sweep_manifest.json")):
        out.append("no sweep manifest")
    return out


_CLI_CHECKS = {"mu_c": _mu_c, "eigen": _eigen, "bifurcate": _bifurcate,
               "escape": _escape, "sweep": _sweep}


def readme_simulate(code: int, stdout: str, outdir: str, validate) -> tuple[str, list[str]]:
    """Outcome of the README's ``simulate`` example, as (status, failures).

    "ok" when it succeeds with a valid report and trajectory; "known" for
    the stop recorded at the commit this benchmark was defined on (exit 5,
    a valid CFLViolation document, ROADMAP item 4), whose message is
    returned for the result file; "failed" for anything else.
    """
    try:
        doc = json.loads(stdout)
        if code == 5:
            validate(doc, "error")
            if doc["error"] == "CFLViolation":
                return "known", [f"known README failure (exit 5): {doc['message']}"]
            return "failed", [f"exit 5 with error {doc['error']!r}"]
        if code == 0:
            validate(doc, "simulate")
            _manifest(outdir, validate)
            if not os.path.exists(os.path.join(outdir, "trajectory.csv")):
                return "failed", ["no trajectory.csv"]
            return "ok", []
        return "failed", [f"exit code {code}: {stdout.strip()[:200]}"]
    except Exception as exc:
        return "failed", [f"{type(exc).__name__}: {exc}"]
