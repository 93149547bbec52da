"""Shared exception types."""


class StgcvaeError(Exception):
    """Base class for all library errors."""


class DimensionError(StgcvaeError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(StgcvaeError):
    """A numeric argument is outside its valid range."""


class ContractError(StgcvaeError):
    """An API precondition was violated (e.g. non-scalar loss)."""


class ConfigError(StgcvaeError):
    """Invalid configuration value or unknown config key."""


class DivergenceError(StgcvaeError):
    """Training produced a non-finite loss or gradient, or sampling a future
    that is not finite; the message names the window and, in training, the
    first non-finite parameter."""


class FormatError(StgcvaeError):
    """A binary file has a bad magic number or version, is truncated, has a
    name that is not UTF-8 or bytes after its last record, or holds a value
    out of range: a window's robot index, or a checkpoint's parameters that
    do not match its config or are not finite."""


class ParseError(StgcvaeError):
    """A text input file could not be parsed; message names file and line."""


class MissingTruthError(StgcvaeError):
    """A window to be trained or scored has non-finite positions, such as the
    NaN future frames of an infer-mode cache; the message names the window."""


class EmptyWindowError(StgcvaeError):
    """A window to be sampled or scored holds no agents; the message names
    the window."""


class IntegrityError(StgcvaeError):
    """Input data violates a structural invariant (e.g. duplicate rows)."""
