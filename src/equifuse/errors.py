"""Exception types shared across the package."""


class EquifuseError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(EquifuseError):
    """Permutations of different degrees were combined."""


class OrderCapExceeded(EquifuseError):
    """A group (or lattice) is larger than the configured enumeration cap."""


class ElementNotInGroup(EquifuseError):
    """An element index or permutation does not belong to the group."""


class NotASubgroup(EquifuseError):
    """A claimed subgroup relation does not hold."""


class NotInSameOrbit(EquifuseError):
    """No transporter exists between the two points."""


class GroupMismatch(EquifuseError):
    """Two class functions are defined on different groups."""


class NotInSpan(EquifuseError):
    """A class function does not lie in the span of the irreducible rows."""


class NotAClassFunction(EquifuseError):
    """A value vector is not a class function of the expected group."""


class EigenbasisFailure(EquifuseError):
    """Internal error: the class-matrix eigenbasis could not be separated."""


class SubgroupMismatch(EquifuseError):
    """Fusion operands live over different subgroups."""


class NoRingStructure(EquifuseError):
    """The family has no multiplication, so ring axioms cannot be checked."""


class InvariantViolation(EquifuseError):
    """Internal error: a structural invariant failed on computed data."""


class ExactnessBoundExceeded(InvariantViolation):
    """Integers too large for a check's exact float64 products: the check
    refuses to answer rather than compare inexactly.  The input is beyond
    what the check can decide, so the command line exits 2, as for a cap."""


class UnknownPreset(EquifuseError):
    """The preset string names no known group."""


class InvalidPrime(EquifuseError):
    """A prime override violates the modular-context invariants."""


class InvalidInput(EquifuseError):
    """Malformed input file, command-line specification or argument value."""
