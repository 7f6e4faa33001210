"""Exception types shared across the library."""


class OscSpectraError(Exception):
    """Base class for library-specific failures."""


class DimensionMismatchError(OscSpectraError, ValueError):
    """Point dimension does not match the declared ambient dimension."""


class DegenerateDegreeError(OscSpectraError, ValueError):
    """Harmonic degree s >= 2 requested in dimension n = 1, where the
    sphere is the two-point set and only degrees 0 and 1 exist."""


class ResourceLimitError(OscSpectraError, RuntimeError):
    """Requested enumeration or product rule exceeds the hard size cap."""


class OutputError(OscSpectraError, OSError):
    """A report's target path cannot be opened for writing."""


class IntegrabilityError(OscSpectraError, RuntimeError):
    """Radial integrand shows divergent tail contributions at the
    quadrature nodes; the weighted inner product does not converge."""


class ContractViolationError(OscSpectraError, ValueError):
    """Caller broke a documented precondition (non-orthogonal rotation
    matrix, insufficient coefficient truncation, wrong rule kind)."""
