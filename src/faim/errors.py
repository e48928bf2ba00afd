"""Exception types shared across the toolkit.

All of these subclass ValueError so callers that don't care about the
distinction can catch the usual thing.  The CLI maps them to exit code 1
(input error); anything else that escapes is an internal error (exit 2).
"""


class FaimError(ValueError):
    """Base class for errors raised by this package."""


class ShapeError(FaimError):
    """Operands have incompatible shapes or widths."""


class InputError(FaimError):
    """Bad user-supplied data: files, labels, checkpoints, CLI values."""


class ConfigError(FaimError):
    """Bad configuration: unknown keys, out-of-range values, geometry overflow."""


class NonFiniteError(FaimError):
    """Training produced a non-finite loss or parameter."""
