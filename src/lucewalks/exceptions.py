"""Exception types shared across the package, and the integer gate that raises one.

The CLI maps these onto exit codes: precondition violations exit with 3,
numerical-tolerance failures with 2, malformed input with 1.  Any other
exception, ``MemoryError`` included, exits with 4.
"""

import numpy as np

__all__ = ["LucewalksError", "PreconditionError", "ToleranceError", "DefectiveMassWarning"]


class LucewalksError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(LucewalksError, ValueError):
    """An input violates a documented domain requirement."""


class ToleranceError(LucewalksError, RuntimeError):
    """A numerical routine could not certify the requested tolerance."""


class DefectiveMassWarning(UserWarning):
    """Emitted when a limiting bottom-card pmf is computed in a regime where
    the probabilities need not sum to one."""


def _as_int(v, what, lo=None, hi=None):
    """``v`` as an int in [lo, hi] (either bound optional).

    An int, a numpy integer or an integral float is accepted; a bool, any
    other float, a string or an out-of-range value raises PreconditionError.
    """
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        v = int(v)
    elif isinstance(v, (float, np.floating)) and float(v).is_integer():
        v = int(v)
    else:
        raise PreconditionError(f"{what}: {v!r} is not an integer")
    if lo is not None and v < lo:
        raise PreconditionError(f"{what} must be at least {lo}: {v} is out of range")
    if hi is not None and v > hi:
        raise PreconditionError(f"{what} must be at most {hi}: {v} is out of range")
    return v


def _as_ints(values, what, lo=None, hi=None):
    """``values`` as a tuple of ints, each checked by :func:`_as_int`; a non-sequence raises."""
    try:
        vals = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
    except TypeError:
        raise PreconditionError(f"{what}: {values!r} is not a sequence") from None
    if not all(type(v) is int for v in vals):
        vals = tuple(_as_int(v, what) for v in vals)
    if vals and (lo, hi) != (None, None):
        _as_int(min(vals), what, lo, hi)
        _as_int(max(vals), what, lo, hi)
    return vals
