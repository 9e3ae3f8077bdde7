"""Exceptions shared across the library.

Every mathematically meaningful failure gets its own class so that
callers (and the command line front end) can tell an impossible
computation apart from bad input.
"""


class UnknownPrime(ValueError):
    """An integer does not factor over the configured prime universe."""


class NonIntegralDivision(ArithmeticError):
    """An exact division required by a recursion left a remainder."""


class DivisibilityViolation(ValueError):
    """A degree-one value at a prime p is not divisible by p."""


class NotFrobeniusCompatible(ValueError):
    """An endomorphism fails the mod-p Frobenius compatibility test."""


class ContextMismatch(ValueError):
    """Operands were built over different rings or prime universes."""


class LimitExceeded(ValueError):
    """A requested symbolic computation exceeds the configured size cap."""


class InconsistentDerivation(ValueError):
    """Prime values that cannot come from a single derivation."""


class NotCoboundary(ValueError):
    """A cocycle that was required to be an inner derivation is not one."""


class PrefixMismatch(ValueError):
    """Two deformations do not share the common lower-order part."""


class ConfigParseError(ValueError):
    """A ring or deformation description file is malformed."""


class UnknownPreset(ValueError):
    """A preset name that the library does not provide."""


class InternalInconsistency(RuntimeError):
    """An internal consistency check failed: a defect in the library, not bad input."""
