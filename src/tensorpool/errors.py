"""Exception hierarchy, the readers of caller values and the one finiteness screen.

Every public entry point reads a caller's values with these readers, so one rule
holds everywhere and a malformed value ends in ``InvalidArgumentError`` naming
the argument.  ``read_int`` (``read_ints`` for a sequence) reads an integral value
of any real type as ``int``: ``2.0`` reads as 2, while ``2.5``, ``"2"``, ``None``
and NaN are rejected.  ``read_real`` reads a real number as ``float``, ``read_items``
a non-empty container as a tuple, and ``read_array`` a float64 array, of a given rank
if asked; a ragged array, one of complex, string or object dtype, or one with a NaN or
an infinity (``_all_finite``), is rejected.
A value the package computes is screened by ``check_finite``, which raises the error named.
An error text shows a caller's value by ``shown``, so an integer too long to print cannot
turn a typed error into a bare ``ValueError``.
"""

import math
import numbers

import numpy as np


class TensorPoolError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(TensorPoolError, ValueError):
    """An argument violates an operation's contract (shape, range, parity)."""

    def __init__(self, message, nearest_eta=None):
        super().__init__(message)
        # populated by the odd-order shrinkage path, which only accepts
        # powers of three and suggests the closest legal exponent
        self.nearest_eta = nearest_eta


class CapacityError(TensorPoolError, ValueError):
    """Input exceeds the desk-scale size bounds this library guarantees."""


class DomainError(TensorPoolError, ValueError):
    """A numeric value is outside the mathematical domain of an operation."""


class NormalizationError(TensorPoolError, ValueError):
    """A vector that must be normalized has zero (or non-finite) norm."""


class FileFormatError(TensorPoolError, ValueError):
    """A serialized tensor file is malformed.

    ``byte_offset`` points at the first offending byte so parse failures
    can be reported precisely.
    """

    def __init__(self, message, byte_offset):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def shown(value) -> str:
    """``repr(value)`` bounded for an error text: an integer past about 100 digits shows its length.

    Python refuses to print an integer of more than 4,300 digits, so a text that
    printed one in full would raise a bare ``ValueError`` instead of the typed error.
    """
    if isinstance(value, int) and value.bit_length() > 330:
        digits = math.floor((value.bit_length() - 1) * math.log10(2)) + 1  # 2**(bits - 1)'s
        digits += abs(value) >= 10**digits  # value has at most one digit more
        return f"{'-' if value < 0 else ''}<an integer of {digits} digits>"
    try:
        return repr(value)
    except ValueError:  # a container holding such an integer
        return f"<a {type(value).__name__} too long to print>"


def read_int(value, name: str, low: int | None = None) -> int:
    """``value`` as an ``int``, if it has an integral value and is at least ``low`` (if given)."""
    v = value
    if type(v) is not int and (  # a plain int, the common case, is read as it is
        isinstance(v, numbers.Integral) or isinstance(v, numbers.Real) and float(v).is_integer()
    ):
        v = int(v)
    if type(v) is not int or low is not None and v < low:
        bound = "" if low is None else f" >= {low}"
        raise InvalidArgumentError(f"{name} must be an integer{bound}, got {shown(value)}")
    return v


def read_ints(values, name: str) -> tuple[int, ...]:
    """``values`` (one value counts as one) as a tuple of ints, each read by ``read_int``."""
    values = tuple(values) if np.iterable(values) else (values,)
    try:
        return tuple(read_int(v, name) for v in values)
    except InvalidArgumentError:
        raise InvalidArgumentError(f"{name} must be integers; got {shown(values)}") from None


def read_items(values, name: str) -> tuple:
    """``values`` as a tuple, if it is a container holding at least one item."""
    items = tuple(values) if np.iterable(values) else ()
    if not items:
        raise InvalidArgumentError(f"{name} must be a non-empty sequence, got {shown(values)}")
    return items


def read_real(value, name: str, low: float | None = None, high: float = np.inf) -> float:
    """``value`` as a ``float``, if it is a real number.

    With ``low``, only a finite one from ``low`` to ``high`` is read.
    """
    if type(value) is not float and not isinstance(value, numbers.Real):  # a float needs no check
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    try:  # an integer beyond float64 does not convert (and may be too long to print)
        value = float(value)
    except OverflowError:
        raise InvalidArgumentError(f"{name} must be a real number within float64") from None
    if low is not None and not (-np.inf < value < np.inf and low <= value <= high):  # and NaN
        floor = f" and >= {low:.4g}" if low > -np.inf else ""
        ceiling = f" and <= {high:.4g}" if high < np.inf else ""
        raise InvalidArgumentError(f"{name} must be finite{floor}{ceiling}, got {value}")
    return value


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, screened by its squared norm.

    A NaN or infinity makes the squared norm non-finite (its terms cannot
    cancel); the exact scan runs only then, so a squared norm that merely
    overflows rejects nothing.  ``np.vdot`` warns on no overflow.  A float
    (NumPy's float64 included) is read directly: ``vdot`` costs 20 times more.
    """
    if isinstance(a, float):
        return math.isfinite(a)
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def check_finite(value, error):
    """``value``, if ``_all_finite(value)``; otherwise ``raise error()``."""
    if _all_finite(value):
        return value
    raise error()


def read_array(value, name: str, ndim: int | None = None, copy: bool = False) -> np.ndarray:
    """``value`` as a finite float64 array (``ndim``-D if given); fresh, C-ordered if ``copy``.

    Only boolean, integer and real floating dtypes convert: a complex value would
    lose its imaginary part, and a string or an object is no number.
    """
    try:  # an array is converted once, below
        arr = value if isinstance(value, np.ndarray) else np.asarray(value)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must be a rectangular array of real numbers") from None
    if arr.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"{name} must be an array of real numbers, got {arr.dtype}")
    arr = np.array(arr, np.float64, order="C") if copy else np.asarray(arr, np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise InvalidArgumentError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if not _all_finite(arr):
        raise InvalidArgumentError(f"{name} must be finite")
    return arr
