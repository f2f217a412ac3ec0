"""Run output: every CSV table, JSON document and manifest annuflow writes.

CSV tables use the csv module's default dialect (comma-separated, fields
quoted where they need it, CRLF line ends). Numbers are printed with 17
significant digits, so round-tripping through text is exact for doubles,
and None is an empty cell. Field dumps are row-major with r as the outer
index. JSON documents, on stdout and on disk alike, come from
:func:`json_text`: two-space indent, sorted keys, one trailing newline,
and no NaN or Infinity.
Every command-level run writes a manifest ``{command, inputs, outputs,
version}`` recording what is needed to reproduce its outputs
bit-identically.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from importlib import resources

import numpy as np

from . import __version__
from .domain import PhysicalField, theta_lattice
from .simulator import Diagnostics

FIELD_HEADER = ["r", "theta", "psi", "v_r", "v_theta"]
TRAJECTORY_HEADER_FIXED = ["t", "E3", "E1", "E2", "max_psi"]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """A header row, then one row per item of rows: numbers at .17g,
    None as an empty cell, strings as they are."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def write_field_csv(path: str, r: np.ndarray, psi: PhysicalField,
                    v_r: np.ndarray, v_theta: np.ndarray) -> None:
    """Dump (r, theta, psi, v_r, v_theta) rows, r outer, theta in radians."""
    nr, nt = psi.nr, psi.ntheta
    write_csv(path, FIELD_HEADER, zip(
        np.repeat(r, nt).tolist(), np.tile(theta_lattice(nt), nr).tolist(),
        psi.values.ravel().tolist(), v_r.ravel().tolist(),
        v_theta.ravel().tolist()))


def write_trajectory_csv(path: str, diags: list[Diagnostics]) -> None:
    """One row per diagnostics sample: fixed columns then per-mode energies."""
    if not diags:
        raise ValueError("empty trajectory")
    n_modes = len(diags[0].mode_energies)
    header = TRAJECTORY_HEADER_FIXED + [f"E_mode{n}" for n in range(1, n_modes + 1)]
    write_csv(path, header, ([d.t, d.E3, d.E1, d.E2, d.max_psi, *d.mode_energies]
                             for d in diags))


def json_text(doc: dict) -> str:
    """The one JSON rendering of a report, an error document or a manifest;
    strict JSON, so a non-finite number raises ValueError."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str, doc: dict) -> None:
    """Write json_text(doc); the file is not created when that raises."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.write(text)


def write_manifest(path: str, command: str, inputs: dict,
                   outputs: list[str]) -> None:
    """Reproducibility record for one command invocation."""
    write_json(path, {
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
