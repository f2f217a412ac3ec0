"""Run files: every CSV table, JSON document and manifest annuflow writes,
and the config files it reads; no field is computed here.

CSV tables use the csv module's default dialect (comma-separated, fields
quoted where they need it, CRLF line ends). Numbers are printed with 17
significant digits, so round-tripping through text is exact for doubles,
and None is an empty cell. A field dump's cells, the lattices a command
computed, are all floats, which the csv module never quotes, so it is
formatted in one pass from a template into the same bytes, each radius
and angle formatted once. JSON documents, on stdout and on disk alike,
come from :func:`json_text`: two-space indent, sorted keys, one trailing
newline, and no NaN or Infinity. Every command-level run writes a
manifest ``{command, inputs, outputs, version}`` recording what is
needed to reproduce its outputs bit-identically.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from importlib import resources

import numpy as np

from . import __version__
from .domain import theta_lattice
from .errors import InvalidPhysics


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
        csv.writer(fh).writerows([_cell(x) for x in row] for row in [header, *rows])


def write_field_csv(path: str, fields: np.ndarray, r: np.ndarray) -> None:
    """Dump the (3, nr, ntheta) lattices ``fields`` of (psi, v_r, v_theta)
    over the radii r x :func:`theta_lattice` (ntheta): one (r, theta, psi,
    v_r, v_theta) row per point, r outer, theta in radians."""
    # each radius and angle is formatted once, into the rows' templates
    r, theta = ([format(x, ".17g") for x in a.tolist()]
                for a in (r, theta_lattice(fields.shape[-1])))
    rows = "\r\n".join(f"{a},{b},%.17g,%.17g,%.17g" for a in r for b in theta)
    with open(path, "w", newline="") as fh:
        fh.write("r,theta,psi,v_r,v_theta\r\n"
                 + rows % tuple(np.moveaxis(fields, 0, -1).ravel().tolist()) + "\r\n")


def write_trajectory_csv(path: str, diags: list) -> None:
    """One row per Diagnostics sample: fixed columns then per-mode energies."""
    if not diags:
        raise ValueError("empty trajectory")
    modes = range(1, len(diags[0].mode_energies) + 1)
    header = ["t", "E3", "E1", "E2", "max_psi"] + [f"E_mode{n}" for n in modes]
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
    return json.loads(resources.files("annuflow").joinpath(f"schemas/{name}.json").read_text())


def validate_against_schema(doc: dict, name: str) -> None:
    """Validate a document against a shipped schema; raises
    jsonschema.ValidationError if it does not conform. Requires jsonschema
    (the ``test`` extra), imported here so that the command line does not
    load it."""
    import jsonschema

    jsonschema.validate(doc, load_schema(name))


def read_config(path: str, casts: dict) -> dict:
    """Flat key = value file, '#' starting a comment, each value cast by its
    key's entry in casts. A line without '=' or a key given twice raises
    ValueError, then a key without an entry InvalidPhysics, and a value
    that does not cast a ValueError naming the file and the key."""
    text: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in text:
                raise ValueError(f"{path}:{lineno}: {key} given twice")
            text[key] = val
    out = {}
    for key, val in text.items():
        if key not in casts:
            raise InvalidPhysics(f"unknown config key {key!r}")
        try:
            out[key] = casts[key](val)
        except ValueError as exc:
            raise ValueError(f"{path}: {key} = {val!r}: {exc}") from exc
    return out
