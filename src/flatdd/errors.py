"""Exception and warning types shared across the package, and where a warning points."""
import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class FlatDdError(Exception):
    """Base class for all library errors."""


class DimensionError(FlatDdError, ValueError):
    """Shapes or index ranges are inconsistent with the operation."""


class FormatError(FlatDdError, ValueError):
    """A file has the right syntax but violates a structural contract."""


class ParseError(FlatDdError, ValueError):
    """A file cannot be parsed at all (bad cell, empty file, ...)."""


class ConfigError(FlatDdError, ValueError):
    """An experiment or problem configuration is invalid."""


class EvaluationError(FlatDdError, ArithmeticError):
    """A user-supplied function produced a non-finite value."""


class DivergenceError(FlatDdError, ArithmeticError):
    """A simulation or iterative solve produced non-finite values."""


class SingularMatrixError(FlatDdError, ValueError):
    """An unregularized solve hit a rank-deficient matrix."""


class PersistencyWarning(UserWarning):
    """A persistency-of-excitation hypothesis could not be verified."""


class ConditioningWarning(UserWarning):
    """A linear solve is close to numerically rank-deficient."""


def _warn(message: str, category: type[Warning]) -> None:
    """Issue ``message`` at the first frame outside the flatdd package
    directory: Python 3.12's ``skip_file_prefixes`` rule, on 3.10 too."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, category, stacklevel=stacklevel)
