"""Exception hierarchy shared across the package."""


class GameError(Exception):
    """Base class for all domain errors."""


class ValidationError(GameError):
    """A domain object violates one of its structural invariants."""


class BadDimension(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    pass


class IndexOutOfRange(GameError):
    pass


class DimensionMismatch(GameError):
    pass


class DegenerateArgmax(GameError):
    """Raised under the strict tie policy when a best-deviation argmax is not unique."""

    def __init__(self, node, tied_profiles):
        self.node = node
        self.tied_profiles = tuple(tied_profiles)
        super().__init__(
            f"non-unique argmax at node {node}: tied opponent profiles {self.tied_profiles}"
        )


class AnchorNotOnCycle(GameError):
    pass


class NotTwoPlayer(GameError):
    pass


class Infeasible(GameError):
    """No point of the simplex satisfies the equal-payoff system."""


class SizeLimit(GameError):
    pass


class BadParameter(GameError):
    """A numeric argument of a library call is out of its documented range."""


class CertificateError(GameError):
    """A computed solution failed one of its own defining identities."""


class ZeroProbabilityType(GameError):
    pass


class ParseError(GameError):
    """Input document could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class BadLiteral(ParseError, ValidationError):
    """Not an exact rational literal, whether read from a file or given in code."""


class MissingProfile(ParseError, ValidationError):
    """A payoff table or tensor lacks profiles, whether read from a file or
    given in code."""
