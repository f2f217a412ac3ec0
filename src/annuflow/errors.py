"""Exception hierarchy shared across the toolkit."""


class AnnuflowError(Exception):
    """Base class for all toolkit errors."""


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


class EigSolverFailure(AnnuflowError):
    """Generalized eigenvalue solver failed or returned no usable eigenvalues."""


class SolverFailure(AnnuflowError):
    """Implicit step solve failed."""


class CFLViolation(AnnuflowError):
    """Time step exceeds the advective CFL limit."""


class NoBracket(AnnuflowError):
    """Root bracketing found no sign change in the search interval."""


class NoEscape(AnnuflowError):
    """Perturbation never reached the escape threshold within the time budget."""


class DegenerateCoefficient(AnnuflowError):
    """Lyapunov coefficient is below the degeneracy tolerance."""
