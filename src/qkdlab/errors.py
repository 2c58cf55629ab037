"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value is malformed or inconsistent."""


class RegimeError(ValueError):
    """A quantity lies outside the validity regime of a bound or formula."""
