"""Exception hierarchy shared by the whole package.

Everything derives from UrlkError so callers (and the CLI) can catch one
base class. ValueError subclasses cover bad inputs; StateError covers
illegal mode transitions such as merging a model twice.
"""


class UrlkError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(UrlkError, ValueError):
    """Dimension or channel-count mismatch between operands."""


class ConfigError(UrlkError, ValueError):
    """Invalid parameter or configuration (even kernel, bad split, ...)."""


class StateError(UrlkError, RuntimeError):
    """Operation requested in the wrong mode (e.g. double merge)."""


class FormatError(UrlkError, ValueError):
    """Malformed weight container or data file."""
