"""Exception hierarchy shared by all quiverstab modules.

Every error raised for a violated contract derives from :class:`DomainError`,
so callers (and the CLI) can distinguish domain problems from bugs.
"""


class DomainError(Exception):
    """Base class for all contract violations raised by this package."""


class InvalidRank(DomainError):
    pass


class MismatchedRootSystem(DomainError):
    pass


class RoundingFailure(DomainError):
    """An exact invariant check of the McKay computation failed."""


class GroupTooLarge(DomainError):
    """The group order exceeds ``rootsys.MAX_GROUP_ORDER``."""


class NoIsomorphism(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class NonFreeOrbit(DomainError):
    pass


class DuplicateOrbit(DomainError):
    pass


class UnsupportedType(DomainError):
    pass


class UnsupportedField(DomainError):
    pass


class NonIntegralEntry(DomainError):
    """A rational whose denominator is divisible by p has no image in F_p."""


class MultipleFramings(DomainError):
    pass


class EmptyInput(DomainError):
    pass


class IndexMismatch(DomainError):
    pass


class ContextMismatch(DomainError):
    pass


class BadSubset(DomainError):
    pass


class DegeneratePlane(DomainError):
    pass


class ArrangementTooLarge(DomainError):
    """A wall arrangement would cost more than :mod:`quiverstab.walls` builds."""


class SliceTooLarge(DomainError):
    """More walls meet the slice plane than :mod:`quiverstab.walls` draws."""


class SamplerExhausted(DomainError):
    """The interior-point sampler found too few distinct points."""


class FaceCountMismatch(DomainError):
    """A traced line arrangement fails Euler's formula V - E + F = 2."""


class LatticeTooLarge(DomainError):
    pass


class DimensionTooLarge(DomainError):
    """The total dimension exceeds the cap of :mod:`quiverstab.quiverrep`."""


class NoFraming(DomainError):
    pass


class NotAModule(DomainError):
    pass
