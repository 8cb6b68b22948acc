"""Exception types shared across the package.

Each class corresponds to one named failure mode of the public operations;
the CLI maps them onto exit codes (malformed input -> 1, resource exhaustion
-> 4).  Keeping them in one module avoids import cycles between the math
modules.
"""


class PruferError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PruferError):
    """Vectors or matrices with incompatible shapes were combined."""


class ZeroPolynomialError(PruferError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class FactorDegreeError(PruferError):
    """Factorization was asked for a polynomial above the degree cap."""


class MalformedInputError(PruferError):
    """An order description could not be parsed or fails validation."""


class NonAssociativeError(MalformedInputError):
    """The multiplication table violates associativity."""


class NoIdentityError(MalformedInputError):
    """The declared identity element is not a two-sided identity."""


class UnitLineError(MalformedInputError):
    """The identity is not a primitive lattice vector (unit line not saturated)."""


class MalformedCertificateError(PruferError):
    """A certificate document is missing fields or fails to parse."""


class SearchExhaustedError(PruferError):
    """A bounded deterministic search ran out of candidates.

    Raised by the primitive-element search; for the algebras accepted by
    ``decompose`` (commutative, reduced, dimension <= 32) small coefficient
    vectors always work, so hitting this indicates a bug or a precondition
    violation rather than a mathematical obstruction.
    """


class BudgetExceededError(PruferError):
    """A membership check would evaluate more points than the budget allows,
    or a ramification exponent r would have more digits than its cap.

    Carries ``required`` (the number of points to evaluate, or the fewest
    digits r is known to have) and ``budget`` so callers can report both.
    """

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class IndexDivisibleError(PruferError):
    """Ramification data was requested at a prime dividing the power-basis index."""


class DiscFactorizationError(PruferError):
    """A discriminant could not be fully factored within the budget."""


class NotApplicableError(PruferError):
    """An operation's mathematical precondition does not hold for this input."""


class IndeterminateError(PruferError):
    """The decision procedure ran out of resources before reaching a verdict.

    Wraps the causing exception; ``reason`` is a stable machine-readable tag,
    and the cause's message already starts with it, so the message names the
    tag once.
    """

    def __init__(self, reason: str, cause: Exception):
        super().__init__(f"indeterminate: {cause}")
        self.reason = reason
        self.cause = cause
