"""Common exception vocabulary for the rsfield package."""


class RsfieldError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(RsfieldError):
    """Operands have incompatible shapes or mode partitions."""


class NonHermitianError(RsfieldError):
    """A matrix required to be Hermitian fails the symmetry check."""


class NonHermitianObservableError(NonHermitianError):
    """An additive observable matrix is not Hermitian."""


class ConvergenceError(RsfieldError):
    """An iterative routine (an eigensolver, or the step doubling of the
    Magnus propagator) did not converge."""


class NonFiniteStateError(RsfieldError):
    """NaN or overflow encountered during integration, in a matrix family
    whose generators are extracted, or in a field amplitude."""


class NotSymplecticError(RsfieldError):
    """A matrix violates the symplectic (CCR-preserving) property."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class InvalidMomentsError(RsfieldError):
    """Field moments violate their structural constraints."""


class StructureViolationError(RsfieldError):
    """A transformed generalized field lost its block structure."""


class NotClassicalClosedError(RsfieldError):
    """The transformation is not passive (lower block nonzero)."""


class NotClassicalOpenError(RsfieldError):
    """The system sub-block of the lower blocks is nonzero."""


class NotPhysicalError(RsfieldError):
    """A state object has a negative occupation beyond tolerance."""

    def __init__(self, message: str, witness: float):
        super().__init__(f"{message} (witness {witness:.3e})")
        self.witness = witness


class PhysicalityLostError(NotPhysicalError):
    """Positivity was lost along an integrated trajectory."""

    def __init__(self, message: str, witness: float, time: float):
        NotPhysicalError.__init__(self, f"{message} at t={time:.6g}", witness)
        self.time = time


class SingularMatrixError(RsfieldError):
    """A matrix that must be inverted is (numerically) singular."""


class DerivativeUnavailableError(RsfieldError):
    """A time derivative could not be evaluated at the requested point."""


class TruncationOverflowError(RsfieldError):
    """Fock-space amplitude leaked into the cutoff boundary."""


class ConfigError(RsfieldError):
    """A run configuration document is invalid."""
