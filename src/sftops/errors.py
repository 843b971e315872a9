"""Exception types shared across the package."""


class SftopsError(Exception):
    """Base class for all package errors."""


class ZeroRowOrColumn(SftopsError):
    pass


class NotIrreducible(SftopsError):
    pass


class BracketUndefined(SftopsError):
    pass


class OrbitsNotDisjoint(SftopsError):
    pass


class SideMismatch(SftopsError):
    pass


class NotComposable(SftopsError):
    pass


class QuasiNormViolation(SftopsError):
    pass


class InsufficientData(SftopsError):
    pass


class ContourHitsSpectrum(SftopsError):
    pass


class SingularResolvent(SftopsError):
    pass


class NotAProjection(SftopsError):
    pass


class NotCornerUnitary(SftopsError):
    pass


class InvalidScenario(SftopsError):
    pass


class NonFiniteOperator(SftopsError):
    pass


class ResourceLimit(SftopsError):
    pass
