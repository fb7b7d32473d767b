"""Exception types shared across the package.

The CLI maps these onto exit codes: precondition violations exit with 3,
numerical-tolerance failures with 2, malformed input with 1.  Any other
exception, ``MemoryError`` included, exits with 4.
"""


class LucewalksError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(LucewalksError, ValueError):
    """An input violates a documented domain requirement."""


class ToleranceError(LucewalksError, RuntimeError):
    """A numerical routine could not certify the requested tolerance."""


class DefectiveMassWarning(UserWarning):
    """Emitted when a limiting bottom-card pmf is computed in a regime where
    the probabilities need not sum to one."""
