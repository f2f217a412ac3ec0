"""Stability and bifurcation toolkit for slip-driven annulus flow.

Computes the critical viscosity of 2D incompressible flow in an annulus
with a Navier-slip inner boundary and stress-free outer boundary, the
leading eigenmodes of the linearized problem, the center-manifold
reduction with its Lyapunov coefficient and bifurcated vortex states, and
cross-validates the reduction with a pseudo-spectral nonlinear simulator.
"""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationReport,
    Classification,
    EigenResult,
    bifurcation_report,
    classify_and_build,
    interaction,
    leading_eigenpair,
    lyapunov_coeff,
    solve_G11,
)
from .critical import (
    det_condition,
    gamma_n,
    mu_c_closed,
    mu_c_oracle,
)
from .domain import (
    DomainParams,
    PhysicalField,
    synthesize_lattice,
    synthesize_physical,
    theta_lattice,
    validate,
)
from .errors import (
    AnnuflowError,
    CFLViolation,
    DegenerateCoefficient,
    EigSolverFailure,
    GridMismatch,
    InvalidGeometry,
    InvalidPhysics,
    NoBracket,
    NoEscape,
    SingularSystem,
    SolverFailure,
    ThinGap,
    TooCoarse,
)
from .simulator import (
    Diagnostics,
    SimState,
    Simulator,
    escape_experiment,
    escape_slope,
    fit_growth_rate,
)
from .spectral import (
    BC_ROWS,
    ModePencil,
    RadialGrid,
    build_grid,
    eigenvector,
    generalized_eig,
    laplacian_n,
    mode_pencil,
    navier_slip_bcs,
    solve_bvp,
)
from .sweep import (
    SweepRow,
    SweepSpec,
    evaluate_point,
    sweep_l,
)
