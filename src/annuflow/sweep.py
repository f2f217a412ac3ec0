"""Parameter-space studies of the bifurcation classification.

Evaluates the Lyapunov coefficient over an (alpha, b) grid at a fixed
relative viscosity offset below the critical value, and bisects the
supercritical/subcritical boundary in b at fixed alpha. Failures at
individual grid points are recorded in the row status instead of aborting
the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bifurcation import classify_and_build, reduction
from .critical import mu_c_closed
from .domain import validate
from .errors import AnnuflowError, InvalidPhysics
from .spectral import RadialGrid, build_grid

#: bisection iteration cap for the sign-flip boundary
_BISECT_CAP = 40


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (alpha, b) samples at fixed inner radius.

    ``mu_offset`` is the relative offset from the critical viscosity at
    which the coefficient is evaluated: mu = mu_c * (1 + mu_offset). The
    default sits just below critical where the bifurcated branch of a
    supercritical point exists.
    """

    a: float = 1.0
    alpha_range: tuple[float, float] = (5.0, 15.0)
    alpha_samples: int = 6
    b_range: tuple[float, float] = (5.0, 15.0)
    b_samples: int = 6
    mu_offset: float = -1e-4
    N: int = 48

    def __post_init__(self):
        if self.alpha_samples < 1 or self.b_samples < 1:
            raise InvalidPhysics("sample counts must be positive")
        if not (self.alpha_range[0] <= self.alpha_range[1]
                and self.b_range[0] <= self.b_range[1]):
            raise InvalidPhysics("ranges must be nondecreasing")
        if abs(self.mu_offset) >= 1e-2:
            raise InvalidPhysics(
                f"|mu_offset| must be < 1e-2, got {self.mu_offset}")

    def alphas(self) -> np.ndarray:
        lo, hi = self.alpha_range
        return np.linspace(lo, hi, self.alpha_samples)

    def bs(self) -> np.ndarray:
        lo, hi = self.b_range
        return np.linspace(lo, hi, self.b_samples)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "alpha_range": list(self.alpha_range),
            "alpha_samples": self.alpha_samples,
            "b_range": list(self.b_range),
            "b_samples": self.b_samples,
            "mu_offset": self.mu_offset,
            "N": self.N,
        }


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


def evaluate_point(a: float, b: float, alpha: float, mu_offset: float,
                   grid: RadialGrid) -> SweepRow:
    """Classification at one (alpha, b) point; failures land in status."""
    try:
        muc = mu_c_closed(validate(a, b, alpha, 1.0))
        mu = muc * (1.0 + mu_offset)
        params = validate(a, b, alpha, mu)
        eig, g11, l = reduction(params, mu, grid)
        report = classify_and_build(params, mu, eig, l, g11)
        return SweepRow(alpha=alpha, b=b, mu_c=muc, lambda1=eig.lambda1,
                        l=l, classification=report.classification.value,
                        status="ok")
    except AnnuflowError as exc:
        return SweepRow(alpha=alpha, b=b, mu_c=None, lambda1=None, l=None,
                        classification="", status=f"{type(exc).__name__}: {exc}")


def sweep_l(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point in canonical row-major (alpha outer) order.

    Grids are rebuilt per b (the radial mapping depends on the outer
    radius) but shared across alpha values at the same b.
    """
    rows = []
    grids = {float(b): build_grid(spec.a, float(b), spec.N) for b in spec.bs()}
    for alpha in spec.alphas():
        for b in spec.bs():
            rows.append(evaluate_point(spec.a, float(b), float(alpha),
                                       spec.mu_offset, grids[float(b)]))
    return rows


@dataclass(frozen=True)
class BoundaryResult:
    """Outcome of a sign-flip bisection in b at fixed alpha.

    ``b_star`` is None when the sign of l is the same at both endpoints
    (NoFlip), which is a reported outcome, not an error.
    """

    alpha: float
    b_star: float | None
    status: str
    l_lo: float | None = None
    l_hi: float | None = None


def _l_at(a: float, b: float, alpha: float, mu_offset: float, N: int) -> float:
    grid = build_grid(a, b, N)
    muc = mu_c_closed(validate(a, b, alpha, 1.0))
    mu = muc * (1.0 + mu_offset)
    _, _, l = reduction(validate(a, b, alpha, mu), mu, grid)
    return l


def boundary_bisect(spec: SweepSpec, alpha: float, *,
                    tol: float = 1e-4) -> BoundaryResult:
    """Bracket the b where sign(l) flips, to ``tol`` absolute in b."""
    lo, hi = spec.b_range
    try:
        f_lo = _l_at(spec.a, lo, alpha, spec.mu_offset, spec.N)
        f_hi = _l_at(spec.a, hi, alpha, spec.mu_offset, spec.N)
    except AnnuflowError as exc:
        return BoundaryResult(alpha=alpha, b_star=None,
                              status=f"{type(exc).__name__}: {exc}")
    if np.sign(f_lo) == np.sign(f_hi):
        return BoundaryResult(alpha=alpha, b_star=None, status="NoFlip",
                              l_lo=f_lo, l_hi=f_hi)
    for _ in range(_BISECT_CAP):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        try:
            f_mid = _l_at(spec.a, mid, alpha, spec.mu_offset, spec.N)
        except AnnuflowError as exc:
            return BoundaryResult(alpha=alpha, b_star=None,
                                  status=f"{type(exc).__name__}: {exc}")
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return BoundaryResult(alpha=alpha, b_star=0.5 * (lo + hi), status="ok",
                          l_lo=f_lo, l_hi=f_hi)
