"""Exception hierarchy shared across the package.

Two broad families matter to callers: :class:`InputError` for malformed
input artifacts (scope files, scan XML, CSV) and :class:`DomainError` for
mathematically undefined requests on well-formed data (zero-porosity
scopes with limitations, all-undefined trust ratios, out-of-domain log
arguments).  The CLI maps them to exit codes 1 and 2 respectively.
"""

from __future__ import annotations

import sys


def shown(text: str) -> str:
    """``text`` as an error line writes it: unchanged if every character is
    printable or a surrogate escape (a command-line byte that is not UTF-8,
    written back raw), else quoted by ``repr`` so the line stays one."""
    if all(ch.isprintable() or "\udc80" <= ch <= "\udcff" for ch in text):
        return text
    return repr(text)


class RavkitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RavkitError):
    """A document could not be parsed or failed validation."""


class DigitLimitError(InputError):
    """A number to be rendered is past the interpreter's int-to-str digit limit."""

    def __init__(self) -> None:
        super().__init__(
            f"a result has more than {sys.get_int_max_str_digits()} digits "
            "and cannot be rendered; the counts are too large"
        )


class FloatRangeError(InputError):
    """A result to be rendered as a decimal is past the float range."""

    def __init__(self) -> None:
        super().__init__(
            "a result is past the float range and cannot be rendered as a decimal; "
            "the counts are too large"
        )


class ScopeFormatError(InputError):
    """Malformed or invalid scope JSON document."""


class ScanFormatError(InputError):
    """Malformed scanner XML or unsupported schema."""


class CsvFormatError(InputError):
    """Malformed applicant CSV (bad header or unusable rows)."""


class DomainError(RavkitError):
    """A computation is undefined for the given well-formed values."""


class UndefinedWeightError(DomainError):
    """Limitation weights are undefined: zero porosity with nonzero limitations."""


class UndefinedTrustError(DomainError):
    """No trust ratio could be evaluated for a record."""


class ZeroDenominatorError(DomainError):
    """Division by the zero polynomial or evaluation at a pole."""


class UnassignedVariableError(DomainError):
    """A symbolic evaluation is missing an assignment for a variable."""
