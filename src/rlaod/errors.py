"""Exception types shared across the package."""


class RlaodError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RlaodError):
    """Invalid or inconsistent run configuration."""


class ContractViolation(RlaodError):
    """An operation was called outside its documented contract."""


class ProtocolError(RlaodError):
    """External detector protocol or transport failure."""


class WeightFormatError(RlaodError):
    """Weight file is unreadable, corrupt, truncated, or has the wrong layout."""


class TrainingDiverged(RlaodError):
    """Training produced a non-finite gradient."""


class ImageFormatError(RlaodError, ValueError):
    """Image file is unreadable, corrupt, truncated, or in an unsupported layout."""
