"""The package's exception types, its one file boundary and its value rules.

The CLI maps these onto exit codes: input/validation problems exit 2,
numerical failures during a run exit 3, I/O problems exit 4.  Every file
the package reads or writes whole goes through _read_text and
_write_text, so a failure to open, read or write becomes IOFailure and
bytes that are not UTF-8 become InputError, both naming the file.
"""

import math
import numbers

import numpy as np


class HkflowError(Exception):
    pass


class InputError(HkflowError):
    """Bad user-supplied data: unknown scenario, malformed snapshot, bad flags."""


class FrameError(InputError):
    """A supplied frame is not admissible (not orthonormal, wrongly oriented,
    or inconsistent with the twistor relations)."""


class PreconditionError(InputError):
    """A diagnostic was asked for outside its domain of validity, e.g. the
    sup-from-L2 validator on a field whose L2 mass exceeds radius^4."""


class NumericalError(HkflowError):
    """The computation degenerated: metric collapse, stability violation,
    failed eigensolve.  Carries the step index when raised inside a flow."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class IOFailure(HkflowError):
    """File could not be read or written."""


def _read_text(path, what):
    """The UTF-8 text of the `what` file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IOFailure(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _write_text(path, what, text):
    """Write text to the `what` file at path as UTF-8."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"cannot write {what} {path}: {exc}") from exc


def _real(name, value):
    """value as a float, or InputError unless it is a real number (a bool is not)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:             # an integer beyond float64
        raise InputError(f"{name} must be a real number within float range: {exc}") from exc


def _finite_real(name, value):
    """InputError unless value is a finite real number."""
    if not math.isfinite(_real(name, value)):
        raise InputError(f"{name} must be finite, got {value}")


def _integer(name, value):
    """value as an int, or InputError unless it is an integer (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real_array(name, value):
    """value as a float64 array, or InputError unless its dtype kind is i, u or f:
    a complex array is refused, not cast to its real part with a mere warning."""
    try:
        arr = np.asarray(value)
        numeric = arr.dtype.kind in "iuf"
    except ValueError:                   # a ragged nesting
        numeric = False
    if not numeric:
        got = f"{arr.dtype} entries" if isinstance(value, np.ndarray) else repr(value)
        raise InputError(f"{name} must hold real numbers, got {got}")
    return arr.astype(float, copy=False)
