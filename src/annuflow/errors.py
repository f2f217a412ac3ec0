"""Exception hierarchy shared across the toolkit.

Each class carries, as ``exit_code``, the code the command line returns
when it stops with that error:

    2  invalid input (``AnnuflowError`` and every class not listed below)
    3  solver failure: EigSolverFailure, SolverFailure (including a
       non-finite simulator state or energy), SingularSystem, NoBracket,
       ThinGap, NoEscape
    4  degenerate or nonexistent bifurcation branch: DegenerateCoefficient,
       NoBranch
    5  CFL violation: CFLViolation
"""


class AnnuflowError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class InvalidGeometry(AnnuflowError):
    """Annulus radii are degenerate or out of order (need 0 < a < b)."""


class InvalidPhysics(AnnuflowError):
    """Slip coefficient or viscosity is non-positive."""


class GridMismatch(AnnuflowError):
    """Fields or operators built on different radial grids were combined."""


class TooCoarse(AnnuflowError):
    """Requested radial resolution is below the supported minimum."""


class SingularSystem(AnnuflowError):
    """Linear solve hit a (near-)singular matrix, e.g. a shift at an eigenvalue."""

    exit_code = 3


class EigSolverFailure(AnnuflowError):
    """Generalized eigenvalue solver failed or returned no usable eigenvalues."""

    exit_code = 3


class SolverFailure(AnnuflowError):
    """Implicit step solve failed, or a simulator state or its energy is not finite."""

    exit_code = 3


class CFLViolation(AnnuflowError):
    """Time step exceeds the advective CFL limit."""

    exit_code = 5


class NoBracket(AnnuflowError):
    """Root bracketing found no sign change in the search interval."""

    exit_code = 3


class ThinGap(AnnuflowError):
    """Gap (b - a)/a too thin for the determinant oracle's digits."""

    exit_code = 3


class NoEscape(AnnuflowError):
    """Perturbation never reached the escape threshold within the time budget."""

    exit_code = 3


class DegenerateCoefficient(AnnuflowError):
    """Lyapunov coefficient is below the degeneracy tolerance."""

    exit_code = 4


class NoBranch(DegenerateCoefficient):
    """Requested a bifurcated state on the side of mu_c where none exists."""
