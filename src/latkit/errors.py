"""Exception types shared across the package."""

from __future__ import annotations


class LatkitError(Exception):
    """Base class for all errors raised by latkit."""


class TermSyntaxError(LatkitError):
    """Bad term text.  ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidValue(LatkitError, ValueError):
    """An argument outside its domain, such as a bad generator name."""


class InvalidPoset(LatkitError):
    """The cover data does not describe a poset (cycle, redundant cover,
    unknown element)."""


class InvalidPartialLattice(LatkitError):
    """A defined join/meet is not the supremum/infimum of its argument set."""


class NotALattice(LatkitError):
    """A pair of elements has no least upper or greatest lower bound."""

    def __init__(self, a: str, b: str, which: str):
        super().__init__(f"no {which} for {{{a!r}, {b!r}}}")
        self.pair = (a, b)
        self.which = which


class UnknownElement(LatkitError):
    """An element id is not part of the lattice."""


class UnknownGenerator(LatkitError):
    """A term mentions a generator outside the declared generating set."""


class UnassignedGenerator(LatkitError):
    """Term evaluation hit a generator with no assigned value."""


class NotGenerating(LatkitError):
    """The designated subset does not generate the lattice."""


class NotAHomomorphism(LatkitError):
    """The generator images do not extend to a lattice homomorphism."""


class NotSurjective(LatkitError):
    """The homomorphism does not map onto its target."""


class TargetMismatch(LatkitError):
    """Two homomorphisms that should share a target do not."""


class DeanConditionFails(LatkitError):
    """The target lattice fails the interpolation condition required by the
    operation's hypothesis."""


class NotLowerBounded(LatkitError):
    """The target lattice fails the finite lower-boundedness test, so the
    requested stabilisation cannot exist."""


class TargetLowerBounded(LatkitError):
    """A non-generation witness was requested for a lower bounded target."""


class SearchExhausted(LatkitError):
    """The witness search ran out of candidates within the configured depth."""


class CapExceeded(LatkitError):
    """An enumeration grew beyond its configured cap.  Caps never silently
    truncate; they abort loudly."""

    def __init__(self, cap: int, what: str = "enumeration"):
        super().__init__(f"{what} exceeded cap {cap}")
        self.cap = cap


class UnverifiedPreconditionWarning(UserWarning):
    """A caller-asserted precondition was taken on faith."""
