"""Exception types shared across the package, and the two value rules
that every config, seed and generator checks its settings by."""

import math
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


def shown(value) -> str:
    """`value` for a message: its repr, but an integer past float range by
    its digit count, as Python prints no integer of over 4,300 digits."""
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        digits = round(math.log10(abs(value)))  # the count, or one less
        return f"an integer of {digits + (abs(value) >= 10**digits)} digits"
    try:
        return repr(value)
    except ValueError:  # a value holding such an integer, as a Fraction
        return f"a {type(value).__name__} too long to print"


def check_int(key, value, least=None) -> None:
    """A ConfigError naming `key` unless `value` is an integer, and at
    least `least` if given."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {shown(value)}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}")


def check_size(key, *dims) -> int:
    """The element count of shape `dims`, or a ConfigError naming `key` at
    2**60 or more, where numpy cannot size an array of 8-byte floats."""
    elements = math.prod(map(int, dims))
    if elements >= 2**60:
        raise ConfigError(f"{key} must be < 2**60, got {shown(elements)}")
    return elements


def check_real(key, value, least=None, above=None) -> None:
    """A ConfigError naming `key` unless `value` is a real number that
    converts to a finite float, at least `least` and above `above` if
    given."""
    if not (isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be finite, got {shown(value)}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}")
    if above is not None and value <= above:
        raise ConfigError(f"{key} must be > {above}")
