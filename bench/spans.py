"""Span recording around calls into annuflow's public functions.

The wrappers live here, outside the program: :func:`install` replaces
every binding of each traced name in every loaded ``annuflow`` module
(modules bind names at import, so ``leading_eigenpair`` is wrapped as seen
from ``bifurcation``, ``sweep``, ``cli`` and the package alike) and wraps
``Simulator`` methods on the class. Spans are kept in memory; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "layer_map.json")) as _fh:
    LAYER_MAP = json.load(_fh)


def _kept(counters, args, kwargs, out):
    counters["spectral.generalized_eig.kept"] += len(out)
    counters["spectral.generalized_eig.attempted"] += args[0].matrix.shape[0]


def _ok(counters, args, kwargs, out):
    counters["sweep.evaluate_point.ok"] += out.status == "ok"


def _svg_bytes(counters, args, kwargs, out):
    counters["contours.field_svg.bytes"] += len(out.encode())


def _csv_bytes(counters, args, kwargs, out):
    counters["io.write_field_csv.bytes"] += os.path.getsize(args[0])


def _points(counters, args, kwargs, out):
    counters["sweep.sweep_l.points"] += len(out)


#: (span name, module, attribute, observer). A dotted attribute is a
#: method wrapped on its class.
TARGETS = [
    ("simulator.Simulator", "annuflow.simulator", "Simulator.__init__", None),
    ("simulator.step", "annuflow.simulator", "Simulator.step", None),
    ("simulator.cfl_limit", "annuflow.simulator", "Simulator.cfl_limit", None),
    ("simulator.energies", "annuflow.simulator", "Simulator.energies", None),
    ("simulator.diagnostics", "annuflow.simulator", "Simulator.diagnostics", None),
    ("simulator.lu_solve", "annuflow.simulator", "lu_solve", None),
    ("spectral.build_grid", "annuflow.spectral", "build_grid", None),
    ("spectral.generalized_eig", "annuflow.spectral", "generalized_eig", _kept),
    ("spectral.solve_bvp", "annuflow.spectral", "solve_bvp", None),
    ("bifurcation.leading_eigenpair", "annuflow.bifurcation", "leading_eigenpair", None),
    ("bifurcation.solve_G11", "annuflow.bifurcation", "solve_G11", None),
    ("bifurcation.lyapunov_coeff", "annuflow.bifurcation", "lyapunov_coeff", None),
    ("bifurcation.bifurcation_report", "annuflow.bifurcation", "bifurcation_report", None),
    ("critical.mu_c_oracle", "annuflow.critical", "mu_c_oracle", None),
    ("critical.det_condition", "annuflow.critical", "det_condition", None),
    ("sweep.sweep_l", "annuflow.sweep", "sweep_l", _points),
    ("sweep.evaluate_point", "annuflow.sweep", "evaluate_point", _ok),
    ("domain.synthesize_physical", "annuflow.domain", "synthesize_physical", None),
    ("contours.field_svg", "annuflow.contours", "field_svg", _svg_bytes),
    ("contours.marching_squares", "annuflow.contours", "marching_squares", None),
    ("io.write_field_csv", "annuflow.io", "write_field_csv", _csv_bytes),
    ("io.write_trajectory_csv", "annuflow.io", "write_trajectory_csv", None),
    ("io.write_json", "annuflow.io", "write_json", None),
    ("cli.cmd_mu_c", "annuflow.cli", "cmd_mu_c", None),
    ("cli.cmd_eigen", "annuflow.cli", "cmd_eigen", None),
    ("cli.cmd_bifurcate", "annuflow.cli", "cmd_bifurcate", None),
    ("cli.cmd_simulate", "annuflow.cli", "cmd_simulate", None),
    ("cli.cmd_sweep", "annuflow.cli", "cmd_sweep", None),
]


class Recorder:
    """In-memory spans: (name, parent index, start, end, self time)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._child: list[float] = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            child = self._child.pop()
            if self._child:
                self._child[-1] += t1 - t0
            self.spans[idx] = (name, parent, t0, t1, t1 - t0 - child)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\n")
            for i, (name, parent, t0, t1, own) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0!r}\t{t1!r}\t{own!r}\n")


def _wrap(rec: Recorder, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = rec.call(name, fn, args, kwargs)
        if observe is not None:
            observe(rec.counters, args, kwargs, out)
        return out
    return wrapper


def install(rec: Recorder) -> set[str]:
    """Wrap every target; return the span names whose target no longer exists."""
    import annuflow.cli  # noqa: F401  (loads every annuflow module)

    mods = [m for n, m in list(sys.modules.items())
            if n == "annuflow" or n.startswith("annuflow.")]
    absent = set()
    for name, modname, attr, observe in TARGETS:
        owner = sys.modules.get(modname)
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            absent.add(name)
            continue
        wrapped = _wrap(rec, name, orig, observe)
        if cls_name:
            setattr(owner, attr, wrapped)
            continue
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    return absent


def _rank(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def layer_metrics(rec: Recorder, absent: set[str], *, import_s: float,
                  overhead_frac: float) -> dict[str, dict]:
    """Every per-layer metric of ``layer_map.json`` whose span still exists.

    Counts and self times are totals over the traced phase; a layer the
    workload does not reach reads 0.
    """
    calls = defaultdict(int)
    own = defaultdict(float)
    durs = defaultdict(list)
    in_sweep = defaultdict(int)  # calls made from inside sweep_l
    for name, parent, t0, t1, self_t in rec.spans:
        calls[name] += 1
        own[name] += self_t
        durs[name].append(t1 - t0)
        while parent >= 0 and rec.spans[parent][0] != "sweep.sweep_l":
            parent = rec.spans[parent][1]
        in_sweep[name] += parent >= 0
    c = rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    stats = {
        "calls": lambda s: calls[s],
        "self_s": lambda s: own[s],
        "p50_ms": lambda s: 1e3 * _rank(sorted(durs[s]), 0.50),
        "p99_ms": lambda s: 1e3 * _rank(sorted(durs[s]), 0.99),
        "kept_ratio": lambda s: ratio(c[s + ".kept"], c[s + ".attempted"]),
        "ok_ratio": lambda s: ratio(c[s + ".ok"], calls[s]),
        "per_point": lambda s: ratio(in_sweep[s], c["sweep.sweep_l.points"]),
        "bytes": lambda s: int(c[s + ".bytes"]),
    }
    out = {}
    for entry in LAYER_MAP["per_layer"]:
        span, stat = entry["name"].rsplit(".", 1)
        if span in absent or (stat == "per_point" and "sweep.sweep_l" in absent):
            continue
        if entry["name"] == "cli.import_s":
            value = import_s
        elif entry["name"] == "trace.overhead_frac":
            value = overhead_frac
        else:
            value = stats[stat](span)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out
