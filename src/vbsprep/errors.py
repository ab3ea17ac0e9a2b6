"""Exception types shared across the package."""


class VbsError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(VbsError):
    """Invalid or incompatible run configuration."""


class CapExceededError(VbsError):
    """Requested object exceeds the configured size cap."""


class ImpossibleOutcomeError(VbsError):
    """Projection onto an outcome of (numerically) zero probability."""


class NonUnitaryError(VbsError):
    """Operator fails a unitarity requirement."""


class NotBipartiteError(VbsError):
    """Lattice has an odd cycle, so no 2-coloring exists."""


class MissingCostError(VbsError):
    """Opaque gate has no declared CNOT cost for the requested coupling."""


class UnsupportedError(VbsError):
    """Combination of parameters outside the implemented range."""
