"""Exception types shared across the package.

Every error raised on a violated precondition derives from SkewmonError so
callers can catch the whole family at once.  Verification *failures* are not
exceptions: checks that can legitimately fail return report entries instead.
"""


class SkewmonError(Exception):
    """Base class for all package-specific errors."""


class ContextMismatchError(SkewmonError):
    """Operands built over different variable tables or contexts."""


class DegenerateSubstitutionError(SkewmonError):
    """A substitution sent a denominator to the zero polynomial."""


class HigherOrderPoleError(SkewmonError):
    """Residue requested along a divisor where the pole has order >= 2."""


class InvalidDivisorError(SkewmonError):
    """The divisor of a residue computation is not a genuine hyperplane."""


class NotInvertibleError(SkewmonError):
    """Inverse requested for an element of a monoid-mode (N^m) lattice."""


class NormalizationViolationError(SkewmonError):
    """A conjugation g.mu left the acting monoid."""


class StabilizerInvarianceError(SkewmonError):
    """Orbit-sum coefficient is not invariant under the stabilizer."""


class InvarianceError(SkewmonError):
    """An operation requiring a G-invariant element received one that is not."""


class UnsupportedModeError(SkewmonError):
    """Operation defined only for lattice-mode (or only group-mode) contexts."""


class PreconditionError(SkewmonError):
    """Generic violated precondition (bad parameters, empty input, ...)."""


class WitnessVerificationError(SkewmonError):
    """A constructed witness failed the exact re-check of its defining identity."""


class DefinitionError(SkewmonError):
    """A relation or scenario referenced a name that does not resolve."""


class ResourceCapError(SkewmonError):
    """A configured resource cap (group size, dimension, degree) was exceeded.

    ``partial`` may carry whatever partial result was computed before the cap
    was hit, e.g. a truncated growth profile.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
