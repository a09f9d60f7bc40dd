"""Exception types shared across the package.

Every package error derives from ThreefoldError, which holds ``message``,
``defect`` and ``tol`` (the measured defect and the bound it exceeded, or
None), and keeps its stdlib base.  The command line exits 1 on
InternalInconsistencyError, a self-consistency failure (two routes that
disagree, or a check such as J_raw^2 != 0 that Schur's lemma guarantees for
the form of a validated irreducible), and 2 on every other ThreefoldError
and on OSError.
"""


class ThreefoldError(Exception):
    """Base of the package's errors: ``message``, ``defect`` and ``tol``."""

    def __init__(self, message, defect=None, tol=None):
        super().__init__(message)
        self.message = message
        self.defect = defect
        self.tol = tol


class ShapeError(ThreefoldError, ValueError):
    """Operands have incompatible shapes or scalar systems."""


class PreconditionError(ThreefoldError, ValueError):
    """A documented precondition on the input does not hold.

    Where the precondition is a bound on a size, ``defect`` is the requested
    value and ``tol`` the bound it exceeded.
    """


class ReducibleError(PreconditionError):
    """A representation required to be irreducible is not.

    ``commutant`` is the measured dimension of its commutant (1 iff irreducible).
    """

    def __init__(self, commutant):
        super().__init__(
            f"representation is reducible (commutant dimension {commutant}); "
            "classify needs an irreducible"
        )
        self.commutant = commutant


class UnsupportedError(ThreefoldError, NotImplementedError):
    """The operation is deliberately not defined for this input."""


class InternalInconsistencyError(ThreefoldError, AssertionError):
    """Two independent computation routes disagree; indicates a bug, not bad input."""


class ParseError(ThreefoldError, ValueError):
    """A representation file is not valid JSON or misses required fields."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ThreefoldError, ValueError):
    """Input fails validation: a group table, a homomorphism, a hermitian element."""
