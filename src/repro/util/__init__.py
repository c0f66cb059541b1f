"""Small shared helpers used across the library."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "check_positive_int": ".validate",
    "check_power_of_two": ".validate",
    "check_probability": ".validate",
    "ilog2": ".validate",
})
