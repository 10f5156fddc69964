"""Exception hierarchy shared across the package."""


class DiracSymmetryError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DiracSymmetryError):
    """Malformed expression text.  `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredIdentifierError(ParseError):
    """Expression uses an identifier the phase space does not declare."""


class SpaceMismatchError(DiracSymmetryError):
    """Operands live on different phase spaces."""


class DependentPrimariesError(DiracSymmetryError):
    """Input primary constraints are linearly dependent over the rationals."""


class InconsistentSystemError(DiracSymmetryError):
    """Chain generation produced a nonzero constant residual: the constraint
    surface is empty, so the system has no solutions."""

    def __init__(self, message: str, residual=None, source: str = ""):
        super().__init__(message)
        self.residual = residual
        self.source = source


class ChainBeyondTertiaryError(DiracSymmetryError):
    """A tertiary bracket is not weakly zero: the hierarchy continues past
    three levels, outside the supported restricted theory."""

    def __init__(self, message: str, source: str = "", bracket=None):
        super().__init__(message)
        self.source = source
        self.bracket = bracket


class SearchTooLargeError(DiracSymmetryError):
    """A bounded membership search would solve for more unknowns, summed over
    its degrees, than ``membership.MAX_UNKNOWNS``; it is refused before the
    degree that passes the limit is built."""


class ProductTooLargeError(DiracSymmetryError):
    """A product or Poisson bracket would form more pairs of terms than
    ``phase.MAX_TERM_PAIRS``; it is refused before any pair is formed."""


class ModelFileError(DiracSymmetryError):
    """Invalid model file: syntax, unknown keys, or failed validation."""


class ReservedParameterError(DiracSymmetryError):
    """A declared parameter collides with generated multiplier names."""
