"""Exception types raised by the validation and reduction pipeline.

Every error carries a human-readable message that names the violated
condition and, where applicable, the measured residual, so callers can
report diagnostics without re-running the check.
"""


class PlrmatError(Exception):
    """Base class for all package-specific errors."""


class InputShapeError(PlrmatError):
    """An array argument has the wrong shape or dimension."""


class StructureConstantError(PlrmatError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class SubspaceError(PlrmatError):
    """A claimed basis is not linearly independent."""


class SubalgebraError(PlrmatError):
    """A subspace is not closed under the ambient Lie bracket."""


class NotSubBialgebraError(PlrmatError):
    """The cobracket of a subalgebra leaks outside the subalgebra's wedge square."""


class DecompositionError(PlrmatError):
    """The chosen complement does not split the subalgebra as a direct sum."""


class ReductivityError(PlrmatError):
    """[H, M] is not contained in M for the chosen complement M."""


class IdealError(PlrmatError):
    """The annihilator of H is not an ideal of the dual algebra."""


class DualSubalgebraError(PlrmatError):
    """The annihilator of M is not a subalgebra of the dual algebra."""


class FactorNotInDualError(PlrmatError):
    """A group-word factor does not lie in the required dual subspace."""


class CDegenerateError(PlrmatError):
    """The constraint matrix is degenerate at the requested point."""


class ConsistencyError(PlrmatError):
    """Two formulas that must agree exactly disagree beyond roundoff."""


class SamplingExhaustedError(PlrmatError):
    """No second-class point was found within the attempt budget."""


class UnknownEntryError(PlrmatError):
    """Requested catalog entry does not exist."""


class SpecFileError(PlrmatError):
    """An input file failed to parse or failed a structural check.

    ``condition`` names the first violated condition for machine-readable
    diagnostics.
    """

    def __init__(self, condition: str, detail: str):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}: {detail}")
