"""Exception hierarchy shared by all fermicov modules."""


class FermicovError(Exception):
    """Base class for all package-specific errors.

    Carries the largest offending residual in ``residual`` and the offending
    state's position in a stack in ``index``, or None for either.
    """

    def __init__(self, message: str, residual: float | None = None, index: int | None = None):
        super().__init__(message if residual is None else f"{message} (residual {residual:.3e})")
        self.residual, self.index = residual, index


class StructureViolation(FermicovError):
    """A matrix does not satisfy the structural form required by its tag."""


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
