"""Exception and warning types shared across the package.

Errors that report a checked property failing on well-formed input derive
from ``PropertyFailure``; every other ``LatBelError`` marks unusable input."""


class LatBelError(Exception):
    """Base class for every error raised by this package."""


class PropertyFailure(LatBelError):
    """A checked property fails on well-formed input: the command line exits 1
    on these and 2 on every other error."""


class InvalidElementName(LatBelError):
    """Element name is empty, contains whitespace, or no elements were declared."""


class DuplicateElement(LatBelError):
    def __init__(self, name: str):
        super().__init__(f"duplicate element name: {name!r}")
        self.name = name


class UnknownElement(LatBelError):
    def __init__(self, name: str):
        super().__init__(f"unknown element: {name!r}")
        self.name = name


class CycleDetected(LatBelError):
    """The cover relation is not acyclic, so it defines no partial order."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("cover cycle: " + " < ".join(self.cycle + (self.cycle[0],)))


class NotALattice(PropertyFailure):
    """A pair of elements has no join or no meet.

    ``reason`` is one of ``no-upper-bound``, ``no-least-upper-bound`` and
    ``no-lower-bound``: along a linear extension, a pair whose lower bounds
    have no greatest comes after a pair without a least upper bound.
    """

    def __init__(self, x: str, y: str, reason: str):
        self.pair = (x, y)
        self.reason = reason
        super().__init__(f"not a lattice: pair ({x}, {y}) has {reason}")


class DecompositionNotUnique(PropertyFailure):
    """Irredundant irreducible decompositions are only unique in locally
    distributive lattices; refusing to pick one arbitrarily."""


class SizeLimitExceeded(LatBelError):
    """An enumeration ran past its configured cap."""


class LatticeMismatch(LatBelError):
    """Two values that must live on the same lattice do not."""


class IncompleteFunction(LatBelError):
    """A function file or mapping left some lattice elements without a value."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("missing values for: " + ", ".join(self.missing))


class InvalidFunction(LatBelError):
    """Function values that are not finite numbers, one per element, or a
    mass allocation whose total is not 1 or whose bottom mass is not 0."""


class NotABijection(LatBelError):
    """A purported negation map is not a bijection on the element set."""


class InvalidNegation(LatBelError):
    """The map fails the join-reversal identity or the top-to-bottom condition."""


class NoConsistentExtension(LatBelError):
    """No negation of the whole lattice extends the given irreducible map."""


class NotAutodual(PropertyFailure):
    """The lattice admits no negation at all."""


class NotDistributive(PropertyFailure):
    """Operation requires a distributive lattice."""


class TotalConflict(PropertyFailure):
    """Dempster normalization impossible: all combined mass sits at bottom."""


class FocusIsBottom(LatBelError):
    """Simple support functions cannot be focused on the bottom element."""


class NotABelief(PropertyFailure):
    def __init__(self, witness=None, detail: str = ""):
        self.witness = witness
        super().__init__(detail or f"function is not a belief function (witness: {witness})")


class TopMassZero(PropertyFailure):
    """Decomposition requires strictly positive mass at the top element."""


class NonPositiveWeight(PropertyFailure):
    """Support weights must be strictly positive."""


class InvalidDistribution(LatBelError):
    """A possibility/necessity distribution violates its range or boundary."""


class TiesInDistribution(PropertyFailure):
    """Chain reconstruction needs strictly increasing distribution values."""

    def __init__(self, a: str, b: str, value: float):
        self.pair = (a, b)
        self.value = value
        super().__init__(f"tied distribution values: {a} and {b} both map to {value}")


class TopValueNotOne(PropertyFailure):
    """The largest distribution value must be exactly 1."""


class SelectionFailed(PropertyFailure):
    """No unique irreducible satisfies the chain-selection conditions;
    some precondition (negation validity, distribution isotonicity) is violated."""

    def __init__(self, step: int, candidates, detail: str = ""):
        self.step = step
        self.candidates = tuple(candidates)
        super().__init__(
            detail or f"step {step}: candidates {list(candidates)} instead of exactly one"
        )


class FormatError(LatBelError):
    """A file does not parse or does not match its schema."""


class RedundantCovers(UserWarning):
    """Input cover pairs dropped because they were duplicated or transitive."""
