"""Exception types shared across the package."""


class QisacError(Exception):
    """Base class for all package-specific failures."""

    iteration: int | None = None   # outer iteration of run_qisac that raised, if any


class ConfigError(QisacError):
    """Invalid or inconsistent configuration (file or programmatic)."""


class InfeasibleError(QisacError):
    """A Fisher-information constraint exceeds the achievable maximum."""
