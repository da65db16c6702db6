"""Exception vocabulary shared across the package, with the CLI exit code of each."""


class HrrpGnnError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 2


class ShapeError(HrrpGnnError, ValueError):
    """Operands have incompatible dimensions."""


class NumericError(HrrpGnnError, ArithmeticError):
    """A computation received or produced non-finite values."""
    exit_code = 4


class ConfigError(HrrpGnnError, ValueError):
    """A configuration value is out of its legal range or inconsistent."""


class UsageError(HrrpGnnError, RuntimeError):
    """An API was called out of order or with mismatched state."""


class DataFormatError(HrrpGnnError, ValueError):
    """A data file is malformed; message carries the offending location."""
    exit_code = 3
