"""File output: field dumps, trajectory tables, JSON reports, manifests.

All floating-point values in CSV output are printed with 17 significant
digits so round-tripping through text is exact for doubles. Field dumps
are row-major with r as the outer index. Every command-level run writes a
manifest recording inputs, resolution, and code version, sufficient to
reproduce the outputs bit-identically.
"""

from __future__ import annotations

import csv
import json
import os
from importlib import resources

import numpy as np

from . import __version__
from .domain import PhysicalField, theta_lattice
from .simulator import Diagnostics

FIELD_HEADER = ["r", "theta", "psi", "v_r", "v_theta"]
TRAJECTORY_HEADER_FIXED = ["t", "E3", "E1", "E2", "max_psi"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field_csv(path: str, r: np.ndarray, psi: PhysicalField,
                    v_r: np.ndarray, v_theta: np.ndarray) -> None:
    """Dump (r, theta, psi, v_r, v_theta) rows, r outer, theta in radians."""
    theta = theta_lattice(psi.ntheta)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FIELD_HEADER)
        for i in range(psi.nr):
            for j in range(psi.ntheta):
                w.writerow([_fmt(r[i]), _fmt(theta[j]), _fmt(psi.values[i, j]),
                            _fmt(v_r[i, j]), _fmt(v_theta[i, j])])


def write_trajectory_csv(path: str, diags: list[Diagnostics]) -> None:
    """Newline-delimited diagnostics: fixed columns then per-mode energies."""
    if not diags:
        raise ValueError("empty trajectory")
    n_modes = len(diags[0].mode_energies)
    header = TRAJECTORY_HEADER_FIXED + [f"E_mode{n}" for n in range(1, n_modes + 1)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for d in diags:
            w.writerow([_fmt(d.t), _fmt(d.E3), _fmt(d.E1), _fmt(d.E2),
                        _fmt(d.max_psi)] + [_fmt(e) for e in d.mode_energies])


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir: str, command: str, inputs: dict,
                   outputs: list[str]) -> None:
    """Reproducibility record for one command invocation."""
    write_json(os.path.join(outdir, "manifest.json"), {
        "command": command,
        "inputs": inputs,
        "outputs": sorted(outputs),
        "version": __version__,
    })


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by basename (without .json)."""
    text = resources.files("annuflow").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def validate_against_schema(doc: dict, name: str) -> None:
    """Validate a document against a shipped schema when jsonschema is
    installed; silently a no-op otherwise (schemas remain authoritative
    for external consumers)."""
    try:
        import jsonschema
    except ImportError:  # pragma: no cover
        return
    jsonschema.validate(doc, load_schema(name))


def read_config(path: str) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment, blank lines skipped."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out
