"""Exception types shared across the package."""


class AzqslError(Exception):
    """Base class for all package-specific errors."""


class DimMismatchError(AzqslError):
    """Operands have incompatible dimensions."""


class NotHermitianError(AzqslError):
    """Matrix deviates from Hermiticity beyond tolerance."""


class NoConvergenceError(AzqslError):
    """Eigensolver failed to converge."""


class NotPSDError(AzqslError):
    """Matrix has an eigenvalue below the negative tolerance."""


class SingularMatrixError(AzqslError):
    """Operation requires a strictly positive-definite matrix."""


class InvalidPError(AzqslError):
    """Schatten norm order p must be >= 1 (or infinity)."""


class InvalidStateError(AzqslError):
    """Matrix fails density-matrix validation."""


class InvalidParamsError(AzqslError):
    """Model or entropy parameters out of their admissible range."""


class InvalidBlochError(InvalidParamsError):
    """Bloch vector parameters out of range."""


class InvalidWeightError(InvalidParamsError):
    """Mixing weight out of [0, 1]."""


class SupportViolationError(AzqslError):
    """supp(rho) is not contained in supp(sigma)."""


class CompletenessViolationError(AzqslError):
    """Kraus operators do not sum to the identity within tolerance."""


class SingularStateError(AzqslError):
    """State is rank-deficient where a full-rank state is required."""


class DenominatorNearZeroError(AzqslError):
    """The |1 + (1 - alpha) ln k_min| denominator vanishes."""


class ZeroVarianceError(AzqslError):
    """Hamiltonian variance vanishes; the state is stationary."""


class SpectrumMismatchError(AzqslError):
    """Target state is not unitarily reachable from the probe."""


class ZeroSpeedError(AzqslError):
    """Time-averaged speed vanishes while the entropy does not."""


class QuadratureTooCoarseError(AzqslError):
    """Half-grid integral check exceeded the relative tolerance."""


class DegenerateRangeError(AzqslError):
    """Series has no spread to normalize."""


class MissingColumnError(AzqslError):
    """Requested column is absent from the dataset."""


class ConfigError(AzqslError):
    """Sweep or CLI configuration is invalid."""


def _attempt(fn, *args):
    """fn(*args), or the AzqslError it raised, without its traceback.

    A kept error's traceback frames link back to the frame that keeps the
    error, a reference cycle that would hold the arrays of that frame alive
    until the next garbage collection."""
    try:
        return fn(*args)
    except AzqslError as exc:
        return exc.with_traceback(None)
