"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or incomplete system configuration."""


class MissingKeyError(ConfigError):
    """A required configuration key is absent."""


class OutOfRangeError(ConfigError):
    """A configuration value violates its documented bound."""


class GuardViolationError(ConfigError):
    """The low altitude would reach or exceed the high altitude."""


class NonPositiveRateError(ValueError):
    """Mean activity rates must be > 0 and at most ``throughput.MAX_RATE``."""


class RateExceedsPopulationError(ValueError):
    """Per-user activation probability would exceed one."""
