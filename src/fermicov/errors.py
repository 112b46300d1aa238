"""Exception hierarchy shared by all fermicov modules."""


class FermicovError(Exception):
    """Base class for all package-specific errors."""


class StructureViolation(FermicovError):
    """A matrix does not satisfy the structural form required by its tag.

    Carries the largest offending residual in ``residual``, or None when the
    violation has no residual (a wrong shape or mode count).
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message if residual is None else f"{message} (residual {residual:.3e})")
        self.residual = residual


class NumericalFailure(FermicovError):
    """A numerical routine produced an unusable result (overflow, bad residual)."""


class NonUniqueStationary(FermicovError):
    """The Lyapunov operator is singular: the semigroup has no unique fixed point."""


class WordTooLong(FermicovError):
    """Moment word exceeds the pairing-enumeration cutoff."""


class TooLarge(FermicovError):
    """Requested dense construction exceeds the supported mode count."""


class UnsupportedIso(FermicovError):
    """The requested tensor-product isomorphism is not available for this operation."""


class NotPSD(FermicovError):
    """A matrix required to be positive semidefinite has a significantly negative eigenvalue."""
