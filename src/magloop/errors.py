"""Exception types shared across the package, and the readers of JSON
config sections that raise them."""

import math


class MagloopError(Exception):
    """Base class for package errors."""


class ConfigError(MagloopError, ValueError):
    """An input is malformed or out of range: a config value, a command-line
    argument or an argument of a public type or entry point."""


class DegenerateLoop(MagloopError):
    """A loop with zero length was passed where a curve is required."""


class NotConcatenable(MagloopError):
    """Two loops share no common vertex within tolerance."""


class NoNegativeLoopFound(MagloopError):
    """The geometry admits no sweep family with negative terminal action."""


class InvalidOracleInput(ConfigError):
    """Reference-value request outside the oracle's domain."""


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return obj[key]


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(obj, key, where, default=None, required=False, integer=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number")
    try:
        finite = math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where}.{key}: must be finite")
    if integer:
        if int(val) != val:
            raise ConfigError(f"{where}.{key}: expected an integer")
        return int(val)
    return float(val)
