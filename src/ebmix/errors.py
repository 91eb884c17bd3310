"""Exception hierarchy shared across the package, and its one type check of numbers.

Every error carries a short machine-readable ``category`` used by the CLI
to emit ``ERROR <category>: message`` lines with a stable prefix.
"""

import numbers


class EbmixError(Exception):
    """Base class for all package errors."""

    category = "internal"


class ContractError(EbmixError, ValueError):
    """A precondition or invariant of the public API was violated."""

    category = "contract"


class DataError(EbmixError, ValueError):
    """Malformed input data (bad CSV row, inconsistent columns, ...)."""

    category = "data"


class NumericError(EbmixError, ArithmeticError):
    """A computation produced a non-finite or otherwise invalid value."""

    category = "numeric"


class UnsupportedError(EbmixError):
    """The requested operation is not defined for this family or model."""

    category = "unsupported"


class FitError(EbmixError):
    """Model fitting failed (all restarts diverged or errored)."""

    category = "fit"


class NoRejectionRegionError(EbmixError):
    """The fdr/FDR curve never drops below the requested level q."""

    category = "no-rejection-region"


class DegenerateRangeError(EbmixError):
    """An automatically derived parameter range collapsed to a point."""

    category = "degenerate-range"


class UsageError(EbmixError):
    """Invalid command-line flags or flag combinations."""

    category = "usage"


def check_number(name: str, value, integer: bool = True) -> None:
    """Raise ContractError unless ``value`` is an integer, or with ``integer=False`` a real number.

    Numpy scalars pass; a bool is neither.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ContractError(f"{name} must be {'an integer' if integer else 'a real number'}, got {value!r}")
