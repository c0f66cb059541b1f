"""Input validation helpers.

These helpers centralise the defensive checks used by public
constructors so that error messages are uniform across the library and
each check is implemented (and tested) exactly once.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a strictly positive ``int``.

    Raises :class:`ConfigurationError` otherwise.  Booleans are rejected
    even though they subclass ``int`` because passing ``True`` for a
    count is always a bug.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_power_of_two(value: int, name: str) -> int:
    """Return ``value`` if it is a positive power of two."""
    check_positive_int(value, name)
    if value & (value - 1):
        raise ConfigurationError(f"{name} must be a power of two, got {value}")
    return value


def check_probability(value: float, name: str, *, allow_zero: bool = True,
                      allow_one: bool = True) -> float:
    """Return ``value`` if it is a probability in ``[0, 1]``.

    The ``allow_zero`` / ``allow_one`` switches tighten the interval for
    quantities that must be strictly inside ``(0, 1)``, such as a target
    exceedance probability.
    """
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a float, got {value!r}") from exc
    if value != value:  # NaN
        raise ConfigurationError(f"{name} must not be NaN")
    low_ok = value > 0.0 or (allow_zero and value == 0.0)
    high_ok = value < 1.0 or (allow_one and value == 1.0)
    if not (low_ok and high_ok):
        interval = ("[" if allow_zero else "(") + "0, 1" + (
            "]" if allow_one else ")")
        raise ConfigurationError(
            f"{name} must lie in {interval}, got {value}")
    return value


def ilog2(value: int, name: str = "value") -> int:
    """Integer log2 of a power of two."""
    check_power_of_two(value, name)
    return value.bit_length() - 1
