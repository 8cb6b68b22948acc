"""Exception types shared across the package.

Each class corresponds to one named failure mode of the public operations;
the CLI maps them onto exit codes (malformed input -> 1, no answer -> 4).
The no-answer policy lives here only: a subclass of ``UnansweredError``
means a resource limit or an unproven assumption stood in the way, its
``tag`` is a stable machine-readable name, and the base class writes that
tag at the front of the message.  ``decide_pruefer`` reports the tag as an
``IndeterminateError``'s ``reason``.  Keeping the classes in one module
avoids import cycles between the math modules.
"""


class PruferError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PruferError):
    """Vectors or matrices with incompatible shapes were combined."""


class ZeroPolynomialError(PruferError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


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


class NotApplicableError(PruferError):
    """An operation's mathematical precondition does not hold for this input."""


class UnansweredError(PruferError):
    """No answer: a resource limit or an unproven assumption is in the way.

    Subclasses declare ``tag``; the message starts with it.
    """

    tag = ""

    def __init__(self, message: str):
        super().__init__(f"{self.tag}: {message}")


class FactorDegreeError(UnansweredError):
    """Factorization was asked for a polynomial above the degree cap."""

    tag = "DEGREE_CAP"


class SearchExhaustedError(UnansweredError):
    """A bounded deterministic search ran out of candidates.

    Raised by the primitive-element search when its shell walk reaches
    ``SEARCH_CAP``: a resource limit of the walk, not a fault.  A YES can lie
    past it, as for Z[i] x Z[sqrt 2] x Z[2^(1/3)] x Z[3^(1/4)] x Z[5^(1/5)].
    """

    tag = "SEARCH_EXHAUSTED"


class BudgetExceededError(UnansweredError):
    """A membership check would evaluate more points than the budget allows,
    r would have more digits than its cap, or a transform sequence cost more.

    Carries ``required`` (the points to evaluate, the fewest digits r is
    known to have, or the sequence's work) and ``budget`` to report both.
    """

    tag = "BUDGET_EXCEEDED"

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class IndexDivisibleError(UnansweredError):
    """Ramification data was requested at a prime dividing the power-basis index."""

    tag = "INDEX_DIVISIBLE"


class DiscFactorizationError(UnansweredError):
    """A discriminant could not be fully factored within the budget."""

    tag = "DISC_FACTORIZATION_FAILED"


class IndeterminateError(PruferError):
    """The decision procedure ran out of resources before reaching a verdict.

    ``reason`` is the ``tag`` of the ``UnansweredError`` that stopped it,
    which is also the exception's ``__cause__``; the cause's message already
    starts with the tag, so the message names it once.
    """

    def __init__(self, reason: str, cause: UnansweredError):
        super().__init__(f"indeterminate: {cause}")
        self.reason = reason
