"""Exception types raised across the package."""


class Quon2dError(Exception):
    """Base class for all quon2d errors."""


class InvariantViolation(Quon2dError):
    """A structural invariant of a diagram or document failed; the message names the check."""


class WidthMismatch(Quon2dError):
    pass


class NotClosed(Quon2dError):
    pass


class OracleTooLarge(Quon2dError):
    pass


class NumericalInstability(Quon2dError):
    pass


class NotAScattering(Quon2dError):
    pass


class SingularAngle(Quon2dError):
    pass


class NoSolution(Quon2dError):
    pass


class PatternMismatch(Quon2dError):
    pass


class HasOpenIntervals(Quon2dError):
    pass


class NoEnclosingLoop(Quon2dError):
    pass


class InvalidRegion(Quon2dError):
    pass


class BitLengthMismatch(Quon2dError):
    pass


class InvalidBit(Quon2dError):
    """A basis bit other than 0 or 1."""


class NonAdjacentTwoQubitGate(Quon2dError):
    pass


class TooLarge(Quon2dError):
    pass


class UnknownGenerator(Quon2dError):
    pass


class UnknownMode(Quon2dError):
    """A mode, direction or kind name that the call does not accept; the
    message lists the names it does."""


class IntervalMismatch(Quon2dError):
    pass


class TooManyLegs(Quon2dError):
    pass


class RankTooLarge(Quon2dError):
    pass


class NotMatchgate(Quon2dError):
    pass


class UntaggedTensor(Quon2dError):
    pass


class PathCrossesHole(Quon2dError):
    pass


class InvalidSegment(Quon2dError):
    pass


class RegionOccupied(Quon2dError):
    pass


class ParityMismatch(Quon2dError):
    pass


class NonPlanarInput(Quon2dError):
    pass


class TooManySites(Quon2dError):
    pass


class Singular(Quon2dError):
    pass


class ParseError(Quon2dError):
    """Malformed document; carries line/column context in the message."""
