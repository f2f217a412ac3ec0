"""Parameter-space studies of the bifurcation classification.

Evaluates the Lyapunov coefficient over an (alpha, b) grid at a fixed
relative viscosity offset from the critical value, with one reduction per
b that every alpha at that b rescales. Failures are recorded in the row
status instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bifurcation import DEFAULT_MU_OFFSET, bifurcation_report
from .critical import mu_c_closed
from .domain import validate
from .errors import AnnuflowError, InvalidPhysics, TooCoarse
from .spectral import MIN_N, RadialGrid, build_grid


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (alpha, b) samples at fixed inner radius.

    ``mu_offset`` is the relative offset from the critical viscosity at
    which the coefficient is evaluated: mu = mu_c * (1 + mu_offset), with
    0 < |mu_offset| < 1e-2. The default sits just below critical where the
    bifurcated branch of a supercritical point exists. mu_offset = 0 is
    rejected: lambda1 vanishes at mu_c, so the sign check of
    :func:`annuflow.bifurcation.leading_eigenpair` cannot tell a resolved
    point from an unresolved one there.
    """

    a: float = 1.0
    alpha_range: tuple[float, float] = (5.0, 15.0)
    alpha_samples: int = 6
    b_range: tuple[float, float] = (5.0, 15.0)
    b_samples: int = 6
    mu_offset: float = DEFAULT_MU_OFFSET
    N: int = 48

    def __post_init__(self):
        if self.alpha_samples < 1 or self.b_samples < 1:
            raise InvalidPhysics("sample counts must be positive")
        if not (self.alpha_range[0] <= self.alpha_range[1]
                and self.b_range[0] <= self.b_range[1]):
            raise InvalidPhysics("ranges must be nondecreasing")
        if not abs(self.mu_offset) < 1e-2:
            raise InvalidPhysics(
                f"|mu_offset| must be < 1e-2, got {self.mu_offset}")
        if self.mu_offset == 0:
            raise InvalidPhysics(
                "mu_offset must be nonzero: lambda1 vanishes at mu_c, so the "
                "sign of lambda1 cannot check whether the grid resolves the point")
        # validate bounds b and alpha on both sides and rejects non-finite
        # values, and every point of a range lies between its ends
        validate(self.a, self.b_range[0], self.alpha_range[0])
        validate(self.a, self.b_range[1], self.alpha_range[1])
        if self.N < MIN_N:
            raise TooCoarse(f"need N >= {MIN_N}, got {self.N}")

    def alphas(self) -> np.ndarray:
        lo, hi = self.alpha_range
        return np.linspace(lo, hi, self.alpha_samples)

    def bs(self) -> np.ndarray:
        lo, hi = self.b_range
        return np.linspace(lo, hi, self.b_samples)

    def to_dict(self) -> dict:
        """The fields as a manifest reads back: the ranges as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}


@dataclass(frozen=True)
class SweepRow:
    """One sweep.csv row; the fields are the SWEEP_HEADER columns in order."""

    alpha: float
    b: float
    mu_c: float | None
    lambda1: float | None
    l: float | None
    classification: str
    status: str


SWEEP_HEADER = ["alpha", "b", "mu_c", "lambda1", "l", "class", "status"]


def evaluate_column(a: float, b: float, alphas: list[float], mu_offset: float,
                    grid: RadialGrid) -> list[SweepRow]:
    """Classification at every alpha of one b, from one reduction at
    alphas[0]; a failed reduction gives every row its status.

    At fixed a, b and mu / mu_c the slip rows' alpha / mu is fixed, and
    with k = alpha / alphas[0] every interior row of the mode-1 and mode-2
    pencils scales by k. So Psi_1 is shared, and lambda_1, G11 and l scale
    by k, 1/k and 1/k. classify_and_build's dead zone scales as l does, so
    the class is fixed by b/a and mu / mu_c, and every row takes the base's.
    """
    try:
        params = validate(a, b, alphas[0])
        base = bifurcation_report(params, mu_c_closed(params) * (1.0 + mu_offset),
                                  grid)
    except AnnuflowError as exc:
        return [SweepRow(alpha=alpha, b=b, mu_c=None, lambda1=None, l=None,
                         classification="", status=f"{type(exc).__name__}: {exc}")
                for alpha in alphas]
    rows = []
    for alpha in alphas:
        k = alpha / alphas[0]
        rows.append(SweepRow(alpha=alpha, b=b, mu_c=mu_c_closed(validate(a, b, alpha)),
                             lambda1=base.lambda1 * k, l=base.l / k,
                             classification=base.classification.value, status="ok"))
    return rows


def evaluate_point(a: float, b: float, alpha: float, mu_offset: float,
                   grid: RadialGrid) -> SweepRow:
    """Classification at one (alpha, b) point; failures land in status."""
    return evaluate_column(a, b, [alpha], mu_offset, grid)[0]


def sweep_l(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point in canonical row-major (alpha outer) order.

    One grid and one reduction per b (the radial mapping depends on the
    outer radius), shared across the alpha values by
    :func:`evaluate_column`'s rescaling.
    """
    alphas = [float(alpha) for alpha in spec.alphas()]
    columns = [evaluate_column(spec.a, float(b), alphas, spec.mu_offset,
                               build_grid(spec.a, float(b), spec.N))
               for b in spec.bs()]
    return [row for rows in zip(*columns) for row in rows]
