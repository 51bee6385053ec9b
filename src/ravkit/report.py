"""Deterministic report rendering: text tables and schema-versioned JSON.

Reports always echo the full input counts next to the scores: a score on
its own hides the data it came from, and the data is the part an engineer
can act on.  JSON output uses sorted keys, rationals as exact ``num/den``
strings, and floats (log-derived quantities only) fixed to six decimals,
so two runs on the same input are byte-identical.  ``parse_report``
verifies a report against the kernel: it scores the echoed scope and
refuses a report whose breakdown disagrees with it.

The keys of ``ravkit-report/1`` and ``ravkit-trust/1`` are fixed, so those
reports are written from templates built once at import, with every key in
the fixed sorted order; only strings taken from the input are escaped per
report.  Findings still go through the generic emitter ``emit_json``, which
sorts each object's keys as it writes it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, Union

from .errors import DigitLimitError, FloatRangeError, InputError, UndefinedWeightError
from .ingest import _parse_scope_obj, _reject_unknown, load_json
from .metrics import (
    LIMITATION_CATEGORIES,
    ControlClass,
    RavBreakdown,
    Scope,
    _POROSITY_FIELDS,
    _RATIONAL_AGGREGATES as _FRACTIONS,
    _by_category,
    _control_counts,
    _porosity_counts,
    actual_security,
)

if TYPE_CHECKING:
    from .trust import Rational, RuleResult, TrustProperty, TrustScore

REPORT_SCHEMA = "ravkit-report/1"
TRUST_SCHEMA = "ravkit-trust/1"
FINDING_SCHEMA = "ravkit-finding/1"

FORMATS = ("text", "json")


def fraction_str(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        # str() of an int past the interpreter's int-digit limit.
        raise DigitLimitError() from None


# ---------------------------------------------------------------------------
# Deterministic JSON emitter (sorted keys, %.6f floats)
# ---------------------------------------------------------------------------


def emit_json(value: Any) -> bytes:
    out: list[str] = []
    _emit(value, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _emit(value: Any, out: list[str]) -> None:
    if isinstance(value, dict):
        # Checked before sorting, which keys of mixed types would fail.
        for key in value:
            if not isinstance(key, str):
                raise InputError(f"JSON object keys must be strings, got {key!r}")
        out.append("{")
        first = True
        for key in sorted(value):
            if not first:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value[key], out)
            first = False
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(f"{value:.6f}")
    elif value is None:
        out.append("null")
    else:
        raise InputError(f"cannot render {type(value).__name__} in a report")


# ---------------------------------------------------------------------------
# rav reports
# ---------------------------------------------------------------------------
#
# The keys of ``ravkit-report/1`` are fixed, so each format is one ``%``
# template, built at import with the JSON keys in the sorted order that
# ``emit_json`` gives them, and then made positional: each ``%(name)``
# placeholder becomes a bare ``%`` and the template keeps a getter that puts
# one tuple of values, in ``_VALUE_NAMES`` order, into its placeholder order.
# Only the scope's id, channel, vector and index are quoted per report.

_FLOATS = ("opsec_base", "tc_base", "fc_base", "seclim_base", "actsec")
_SCOPE_LABELS = ("id", "channel", "vector", "index")
#: The JSON key and text label of each control class, in pipeline order.
_CLASS_KEYS = tuple(cls.value for cls in ControlClass)
_CLASS_ABBREVIATIONS = tuple(cls.abbreviation for cls in ControlClass)

_fractions = attrgetter(*_FRACTIONS)
_floats = attrgetter(*_FLOATS)
_scope_labels = attrgetter(*_SCOPE_LABELS)
_by_class = itemgetter(*ControlClass)

# Placeholder names, each tuple in the order of the values its getters return.
_COUNT_NAMES = (
    *(f"porosity.{key}" for key in _POROSITY_FIELDS),
    *(f"controls.{key}" for key in _CLASS_KEYS),
    *(f"limitations.{name}" for name in LIMITATION_CATEGORIES),
)
_FRACTION_NAMES = (
    *_FRACTIONS,
    *(f"mc_per_class.{key}" for key in _CLASS_KEYS),
    *(f"tc_per_class.{key}" for key in _CLASS_KEYS),
    *(f"weights.{name}" for name in LIMITATION_CATEGORIES),
)
_VALUE_NAMES = (*_SCOPE_LABELS, *_COUNT_NAMES, *_FRACTION_NAMES, *_FLOATS)


def _positional(template: str) -> tuple[str, itemgetter]:
    """A named-placeholder template as a positional one, with the getter
    that orders a ``_VALUE_NAMES`` tuple for it."""
    text, *rest = template.split("%(")
    pieces, names = [text], []
    for part in rest:
        name, text = part.split(")", 1)
        names.append(name)
        pieces.append("%" + text)
    return "".join(pieces), itemgetter(*map(_VALUE_NAMES.index, names))


def _object(members: Mapping[str, str]) -> str:
    """An object's JSON text with its keys sorted as ``emit_json`` sorts them;
    each member is the text of its value: a placeholder or a template."""
    return "{" + ", ".join(f"{json.dumps(key)}: {members[key]}" for key in sorted(members)) + "}"


def _members(prefix: str, keys: Iterable[str], quoted: bool = False) -> str:
    text = '"%%(%s.%s)s"' if quoted else "%%(%s.%s)s"
    return _object({key: text % (prefix, key) for key in keys})


_REPORT_JSON = _positional(_object(
    {
        "schema": json.dumps(REPORT_SCHEMA),
        "scope": _object(
            {
                **{key: f"%({key})s" for key in _SCOPE_LABELS},
                "porosity": _members("porosity", _POROSITY_FIELDS),
                "controls": _members("controls", _CLASS_KEYS),
                "limitations": _members("limitations", LIMITATION_CATEGORIES),
            }
        ),
        "breakdown": _object(
            {
                **{key: f'"%({key})s"' for key in _FRACTIONS},
                **{key: f"%({key}).6f" for key in _FLOATS},
                "mc_per_class": _members("mc_per_class", _CLASS_KEYS, quoted=True),
                "tc_per_class": _members("tc_per_class", _CLASS_KEYS, quoted=True),
                "weights": _members("weights", LIMITATION_CATEGORIES, quoted=True),
            }
        ),
    }
) + "\n")


def _assignments(prefix: str, keys: Sequence[str], labels: Sequence[str] = ()) -> str:
    """The text report's ``label=value`` list; the labels default to the keys."""
    return " ".join(f"{label}=%({prefix}.{key})s" for label, key in zip(labels or keys, keys))


_REPORT_TEXT = _positional("\n".join(
    (
        "rav report: %(id)s",
        "scope: channel=%(channel)s vector=%(vector)s index=%(index)s",
        "",
        "inputs",
        "  porosity     " + _assignments("porosity", _POROSITY_FIELDS),
        "  controls     " + _assignments("controls", _CLASS_KEYS, _CLASS_ABBREVIATIONS),
        "  limitations  " + _assignments("limitations", LIMITATION_CATEGORIES),
        "",
        "pipeline",
        "  opsec_sum    %(opsec_sum)s",
        "  opsec_base   %(opsec_base).6f",
        "  lc_sum       %(lc_sum)s",
        "  fc_base      %(fc_base).6f",
        "  mc_per_class " + _assignments("mc_per_class", _CLASS_KEYS, _CLASS_ABBREVIATIONS),
        "  mc_sum       %(mc_sum)s (class_a %(mc_class_a)s, class_b %(mc_class_b)s, vg %(mc_vg)s)",
        "  tc_per_class " + _assignments("tc_per_class", _CLASS_KEYS, _CLASS_ABBREVIATIONS),
        "  tc_base      %(tc_base).6f",
        "  weights      " + _assignments("weights", LIMITATION_CATEGORIES),
        "  seclim_sum   %(seclim_sum)s",
        "  seclim_base  %(seclim_base).6f",
        "  actsec       %(actsec).6f",
        "",
    )
))


def _ratio_str(num: int, den: int) -> str:
    """``num/den`` (``den > 0``) in lowest terms, as ``fraction_str`` writes it."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _kernel_strings(s, lc_sum, mc_a, mc_b, mc, tc, vg_den, weights, den, key) -> tuple:
    """The rational fields' strings, in ``_FRACTION_NAMES`` order, from the
    kernel ints an ``actual_security`` breakdown holds."""
    return (
        f"{s}/1",
        f"{lc_sum}/1",
        f"{mc_a + mc_b}/1",
        f"{mc_a}/1",
        f"{mc_b}/1",
        _ratio_str(mc_a + mc_b, vg_den),
        _ratio_str(key, den * den),
        *[f"{n}/1" for n in mc],
        *[f"{n}/1" for n in tc],
        *[_ratio_str(w, den) for w in weights],
    )


def _report_values(b: RavBreakdown, scope: Scope) -> tuple:
    """The numbers both report templates share: the counts, the rational
    fields' strings and the floats, in ``_VALUE_NAMES`` order."""
    kernel = b._kernel
    if kernel is None:
        rationals = map(
            fraction_str,
            (
                *_fractions(b),
                *_by_class(b.mc_per_class),
                *_by_class(b.tc_per_class),
                *_by_category(b.weights),
            ),
        )
    else:
        rationals = _kernel_strings(*kernel)
    return (
        *_porosity_counts(scope.porosity),
        *_control_counts(scope.controls),
        *_by_category(scope.limitations),
        *rationals,
        *_floats(b),
    )


def render_report(breakdown: RavBreakdown, scope: Scope, format: str = "text") -> bytes:
    """Render one scope's breakdown, inputs included, as text or JSON."""
    if format == "json":
        template, order = _REPORT_JSON
        labels = map(json.dumps, _scope_labels(scope))
    elif format == "text":
        template, order = _REPORT_TEXT
        labels = (scope.id, scope.channel, scope.vector or "-", scope.index or "-")
    else:
        raise InputError(f"unknown report format {format!r}; expected text or json")
    try:
        text = template % order((*labels, *_report_values(breakdown, scope)))
    except ValueError:
        # str() of an int past the int-digit limit: a rational field, or an
        # echoed count (an aggregate can sum counts that each parsed to one
        # past it).
        raise DigitLimitError() from None
    return text.encode("utf-8")


def parse_report(data: Union[bytes, str]) -> tuple[Scope, RavBreakdown]:
    """Verify a JSON report against the kernel and return its scope and breakdown.

    The scope is parsed and scored with :func:`actual_security`; the
    document's ``breakdown`` must equal, key for key and in type as well as
    value, the one :func:`render_report` writes for that scope.  A report
    that disagrees with its own counts is refused with an
    :class:`InputError` naming the first differing path.  The breakdown
    returned is the kernel's, with full-precision floats.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"report is not valid UTF-8: {exc}") from None
    doc = load_json(data, InputError, "invalid report JSON")
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise InputError(f"not a {REPORT_SCHEMA} document")
    scope = _parse_scope_obj(doc.get("scope"), "$.scope").scope
    try:
        breakdown = actual_security(scope)
    except UndefinedWeightError as exc:
        raise InputError(f"$.scope: {exc}") from None
    expected = json.loads(render_report(breakdown, scope, "json"))["breakdown"]
    _expect_same(doc.get("breakdown"), expected, "$.breakdown")
    return scope, breakdown


def _expect_same(found: Any, expected: Any, path: str) -> None:
    """Raise an :class:`InputError` at the first path where ``found``
    differs from ``expected`` in a key, a type or a value."""
    if type(expected) is dict and type(found) is dict:
        _reject_unknown(found, expected.keys(), path)
        for key, value in expected.items():
            if key not in found:
                raise InputError(f"{path}.{key}: missing")
            _expect_same(found[key], value, f"{path}.{key}")
    elif type(found) is not type(expected) or found != expected:
        raise InputError(f"{path}: disagrees with the breakdown computed from $.scope")


# ---------------------------------------------------------------------------
# Trust reports
# ---------------------------------------------------------------------------
#
# Like the rav report, a trust report's objects are templates with their
# keys in ``emit_json`` order.  Only the applicant ids and the values are
# quoted per applicant: a rule's members but its value, and the mode, are
# the same for every applicant, so each is quoted once and kept.

# "value" sorts last, so a rule object is this head, then its value and "}".
_RULE_HEAD = _object(
    {
        key: f"%({key})s"
        for key in ("rule_id", "property", "value", "undefined_reason", "excluded")
    }
).partition("%(value)s")[0]
# Positional: its keys sort as applicant_id, combined, combined_decimal,
# mode, per_property, rules.
_APPLICANT_JSON = _object(
    {
        "applicant_id": "%s",
        "rules": "[%s]",
        "per_property": "{%s}",
        "combined": '"%s"',
        "combined_decimal": "%.6f",
        "mode": "%s",
    }
)
_TRUST_JSON = _object({"schema": json.dumps(TRUST_SCHEMA), "applicants": "[%s]"}) + "\n"


class _PropertyKeys(dict):
    """Each trust property's JSON key, quoted on first use, so rendering a
    scope report never loads ``trust``.  The values are lowercase words, so
    the quoted keys sort in the same order as the values themselves."""

    def __missing__(self, prop):
        self[prop] = key = json.dumps(prop.value)
        return key


_PROPERTY_KEYS = _PropertyKeys()


def _fraction_or_null(value: Fraction | None) -> str:
    return "null" if value is None else f'"{fraction_str(value)}"'


def _string_or_null(value: str | None) -> str:
    return "null" if value is None else json.dumps(value)


@lru_cache(maxsize=1024)
def _rule_head(rule_id: str, prop: TrustProperty, reason: str | None, excluded: tuple) -> str:
    """A rule object's JSON up to its value: the same for every applicant."""
    pairs = ", ".join(f"[{', '.join(map(json.dumps, pair))}]" for pair in excluded)
    return _RULE_HEAD % {
        "rule_id": json.dumps(rule_id),
        "property": _PROPERTY_KEYS[prop],
        "undefined_reason": _string_or_null(reason),
        "excluded": f"[{pairs}]",
    }


_quoted = lru_cache(maxsize=64)(json.dumps)


def _applicant_json(applicant_id: str, results: Sequence[RuleResult], score: TrustScore) -> str:
    per_property = sorted(
        (_PROPERTY_KEYS[prop], _fraction_or_null(value))
        for prop, value in score.per_property.items()
    )
    rules = ", ".join([
        _rule_head(r.rule_id, r.property, r.undefined_reason, r.excluded)
        + _fraction_or_null(r.value) + "}"
        for r in results
    ])
    num, den = score.combined.numerator, score.combined.denominator
    return _APPLICANT_JSON % (
        json.dumps(applicant_id), f"{num}/{den}", num / den, _quoted(score.mode),
        ", ".join(f"{key}: {value}" for key, value in per_property), rules,
    )


def _value_text(value: Rational) -> str:
    """A value as the text report writes it: ``num/den (decimal)``."""
    num, den = value.numerator, value.denominator
    return f"{num}/{den} ({num / den:.6f})"


def _trust_text(scored: Iterable[tuple[str, Sequence[RuleResult], TrustScore]]) -> str:
    lines: list[str] = []
    for applicant_id, results, score in scored:
        lines.append(f"applicant: {applicant_id}")
        for r in results:
            if r.value is not None:
                lines.append(f"  {r.rule_id:<32}{_value_text(r.value)}")
            else:
                lines.append(f"  {r.rule_id:<32}undefined: {r.undefined_reason}")
            for rule_id, reason in r.excluded:
                lines.append(f"    excluded {rule_id}: {reason}")
        label = f"combined({score.mode})"
        lines.append(f"  {label:<32}{_value_text(score.combined)}")
        lines.append("")
    return "\n".join(lines)


def render_trust_report(
    scored: Iterable[tuple[str, Sequence[RuleResult], TrustScore]],
    format: str = "text",
) -> bytes:
    """Render per-applicant rule values and combined trust scores, reading
    ``scored`` once, in order, so it may be an iterator."""
    try:
        if format == "json":
            applicants = ", ".join(_applicant_json(*entry) for entry in scored)
            return (_TRUST_JSON % applicants).encode("utf-8")
        if format != "text":
            raise InputError(f"unknown report format {format!r}; expected text or json")
        return _trust_text(scored).encode("utf-8")
    except ValueError:
        # str() of a value past the interpreter's int-digit limit.
        raise DigitLimitError() from None
    except OverflowError:
        # A rule value or combined score past the float range, as a decimal.
        raise FloatRangeError() from None


def render_findings(findings: Iterable[Any]) -> bytes:
    """Serialize critique findings under the ``ravkit-finding/1`` schema."""
    return emit_json(
        {
            "schema": FINDING_SCHEMA,
            "findings": [f.to_obj() for f in findings],
        }
    )
