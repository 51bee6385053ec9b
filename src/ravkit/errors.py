"""Exception hierarchy shared across the package.

Two broad families matter to callers: :class:`InputError` for malformed
input artifacts (scope files, scan XML, CSV) and :class:`DomainError` for
mathematically undefined requests on well-formed data (zero-porosity
scopes with limitations, all-undefined trust ratios, out-of-domain log
arguments).  The CLI maps them to exit codes 1 and 2 respectively.
"""

from __future__ import annotations

import math
import sys


def shown(text: str) -> str:
    """``text`` as an error line writes it: unchanged if every character is
    printable or a surrogate escape (a command-line byte that is not UTF-8,
    written back raw), else quoted by ``repr`` so the line stays one."""
    if all(ch.isprintable() or "\udc80" <= ch <= "\udcff" for ch in text):
        return text
    return repr(text)


def shown_number(value: object, text=repr) -> str:
    """``text(value)`` as an error line writes a refused value.  An int or a
    ``Fraction`` with a part past the interpreter's int-to-str digit limit,
    which ``text`` cannot write, is written by sign and digit count instead:
    ``-<5001 digits>``, or ``<5001 digits>/3`` for a ``Fraction``."""
    try:
        return text(value)
    except ValueError:
        if not isinstance(getattr(value, "numerator", None), int):
            raise
    parts = [value.numerator] if value.denominator == 1 else [value.numerator, value.denominator]
    return "/".join(map(_digit_count_text, parts))


def _digit_count_text(n: int) -> str:
    """``str(n)``, or past the int-to-str digit limit ``n``'s sign and digit count."""
    try:
        return str(n)
    except ValueError:
        pass
    magnitude = abs(n)
    digits = int(math.log10(magnitude)) + 1
    if magnitude < 10 ** (digits - 1):  # log10 rounds up to k just below 10**k
        digits -= 1
    return f"{'-' if n < 0 else ''}<{digits} digits>"


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
