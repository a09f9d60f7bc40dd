"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes or scalar systems."""


class RankDeficientError(ValueError):
    """Input vectors are linearly dependent where independence is required."""


class PreconditionError(ValueError):
    """A documented precondition on the input does not hold.

    Where the precondition is a bound on a size, ``defect`` is the requested
    value and ``tol`` the bound it exceeded; both are None otherwise.
    """

    def __init__(self, message, defect=None, tol=None):
        super().__init__(message)
        self.defect = defect
        self.tol = tol


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


class UnsupportedError(NotImplementedError):
    """The operation is deliberately not defined for this input."""


class DegenerateFormError(ValueError):
    """A bilinear form required to be nondegenerate is (numerically) singular."""


class InternalInconsistencyError(AssertionError):
    """Two independent computation routes disagree; indicates a bug, not bad input.

    ``defect`` and ``tol`` are the measured defect and the absolute bound it
    exceeded, where the check measures one; both are None otherwise.
    """

    def __init__(self, message, defect=None, tol=None):
        super().__init__(message)
        self.defect = defect
        self.tol = tol


class ParseError(ValueError):
    """A representation file is not valid JSON or misses required fields."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Input fails validation: a group table, a homomorphism, a hermitian element.

    ``defect`` and ``tol`` are the measured defect and the absolute bound it
    exceeded, where the check measures one; both are None otherwise.
    """

    def __init__(self, message, defect=None, tol=None):
        super().__init__(message)
        self.defect = defect
        self.tol = tol
