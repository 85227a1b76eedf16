"""Exception types shared across the package, and the two value rules
that every config, seed and generator checks its settings by."""

import numbers
import sys


class PrismFlowError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(PrismFlowError):
    """An array argument has the wrong shape or incompatible dimensions."""


class NumericError(PrismFlowError):
    """A computation produced non-finite values or failed to converge."""


class ContractViolation(PrismFlowError):
    """A caller broke a documented precondition."""


class ConfigError(PrismFlowError):
    """A configuration value is invalid or unknown."""


class ParseError(PrismFlowError):
    """An input file is malformed; message carries line/column context."""


def check_int(key, value, least=None) -> None:
    """A ConfigError naming `key` unless `value` is an integer, and at
    least `least` if given."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}")


def check_real(key, value, least=None, above=None) -> None:
    """A ConfigError naming `key` unless `value` is a real number that
    converts to a finite float, at least `least` and above `above` if
    given."""
    if not (isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}")
    if above is not None and value <= above:
        raise ConfigError(f"{key} must be > {above}")
