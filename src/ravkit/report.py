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
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, Union

from .errors import (
    DigitLimitError,
    FloatRangeError,
    InputError,
    ScopeFormatError,
    UndefinedWeightError,
)
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
    from .trust import RuleResult, TrustScore

REPORT_SCHEMA = "ravkit-report/1"
TRUST_SCHEMA = "ravkit-trust/1"
FINDING_SCHEMA = "ravkit-finding/1"

FORMATS = ("text", "json")


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
# A rational field is written ``num/den`` from two int placeholders, so the
# ``%`` operator formats every number; the 25 denominators the kernel always
# has as 1 are written into the text.  Only the scope's id, channel, vector
# and index are quoted per report.

_FLOATS = ("opsec_base", "tc_base", "fc_base", "seclim_base", "actsec")
_SCOPE_LABELS = ("id", "channel", "vector", "index")
#: The JSON key and text label of each control class, in pipeline order.
_CLASS_KEYS = tuple(cls.value for cls in ControlClass)
_CLASS_ABBREVIATIONS = tuple(cls.abbreviation for cls in ControlClass)

_scope_labels = attrgetter(*_SCOPE_LABELS)

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
#: The denominators that are 1 in every breakdown of the kernel ints: all
#: but those of ``mc_vg``, ``seclim_sum`` and the weights.
_ONES = frozenset(
    f"{name}.den" for name in _FRACTION_NAMES
    if name not in ("mc_vg", "seclim_sum") and not name.startswith("weights.")
)
#: The values a report is written from: the rational fields' numerators,
#: then their denominators that are not always 1.
_VALUE_NAMES = (
    *_SCOPE_LABELS,
    *_COUNT_NAMES,
    *(f"{name}.num" for name in _FRACTION_NAMES),
    *(f"{name}.den" for name in _FRACTION_NAMES if f"{name}.den" not in _ONES),
    *_FLOATS,
)


def _positional(template: str) -> tuple[str, itemgetter]:
    """A named-placeholder template as a positional one, with each of
    ``_ONES`` written as a literal 1, and the getter that orders a tuple of
    ``_VALUE_NAMES`` for it."""
    for name in _ONES:
        template = template.replace(f"%({name})s", "1")
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


def _ratio(name: str) -> str:
    """A rational field's placeholder text: ``num/den``."""
    return f"%({name}.num)s/%({name}.den)s"


def _members(prefix: str, keys: Iterable[str], quoted: bool = False) -> str:
    if quoted:
        return _object({key: f'"{_ratio(f"{prefix}.{key}")}"' for key in keys})
    return _object({key: f"%({prefix}.{key})s" for key in keys})


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
                **{key: f'"{_ratio(key)}"' for key in _FRACTIONS},
                **{key: f"%({key}).6f" for key in _FLOATS},
                "mc_per_class": _members("mc_per_class", _CLASS_KEYS, quoted=True),
                "tc_per_class": _members("tc_per_class", _CLASS_KEYS, quoted=True),
                "weights": _members("weights", LIMITATION_CATEGORIES, quoted=True),
            }
        ),
    }
) + "\n")


def _assignments(
    prefix: str, keys: Sequence[str], labels: Sequence[str] = (), rational: bool = False
) -> str:
    """The text report's ``label=value`` list; the labels default to the keys."""
    value = _ratio if rational else "%({})s".format
    return " ".join(
        f"{label}={value(f'{prefix}.{key}')}" for label, key in zip(labels or keys, keys)
    )


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
        "  opsec_sum    " + _ratio("opsec_sum"),
        "  opsec_base   %(opsec_base).6f",
        "  lc_sum       " + _ratio("lc_sum"),
        "  fc_base      %(fc_base).6f",
        "  mc_per_class "
        + _assignments("mc_per_class", _CLASS_KEYS, _CLASS_ABBREVIATIONS, rational=True),
        f"  mc_sum       {_ratio('mc_sum')} (class_a {_ratio('mc_class_a')}, "
        f"class_b {_ratio('mc_class_b')}, vg {_ratio('mc_vg')})",
        "  tc_per_class "
        + _assignments("tc_per_class", _CLASS_KEYS, _CLASS_ABBREVIATIONS, rational=True),
        "  tc_base      %(tc_base).6f",
        "  weights      " + _assignments("weights", LIMITATION_CATEGORIES, rational=True),
        "  seclim_sum   " + _ratio("seclim_sum"),
        "  seclim_base  %(seclim_base).6f",
        "  actsec       %(actsec).6f",
        "",
    )
))


def _kernel_values(
    s, lc_sum, mc_a, mc_b, mc, tc, vg_den, weights, den, key,
    opsec_base, tc_base, fc_base, seclim_base, actsec, scope,
) -> tuple:
    """The rational fields' numerators, then the denominators that are not
    always 1, each pair in lowest terms and each half in ``_FRACTION_NAMES``
    order, then the float fields: the values of an ``actual_security``
    breakdown's kernel that a report writes."""
    mc_sum = mc_a + mc_b
    vg, lim = gcd(mc_sum, vg_den), gcd(key, den * den)
    wv, ww, wc, we, wa = weights
    gv, gw, gc, ge, ga = gcd(wv, den), gcd(ww, den), gcd(wc, den), gcd(we, den), gcd(wa, den)
    return (
        s, lc_sum, mc_sum, mc_a, mc_b, mc_sum // vg, key // lim, *mc, *tc,
        wv // gv, ww // gw, wc // gc, we // ge, wa // ga,
        vg_den // vg, den * den // lim, den // gv, den // gw, den // gc, den // ge, den // ga,
        opsec_base, tc_base, fc_base, seclim_base, actsec,
    )


def _scope_kernel(breakdown: RavBreakdown, scope: Scope) -> tuple:
    """The kernel of ``scope``'s own breakdown, for a breakdown that was not
    computed from ``scope`` itself (one built field by field, by
    ``dataclasses.replace`` or by unpickling, or one of another scope
    object), which must equal it."""
    try:
        own = actual_security(scope)
    except UndefinedWeightError:
        own = None  # no breakdown belongs to this scope
    if own != breakdown:
        raise InputError(f"breakdown disagrees with the one computed from scope {scope.id!r}")
    return own._kernel


def render_report(breakdown: RavBreakdown, scope: Scope, format: str = "text") -> bytes:
    """Render one scope's breakdown, inputs included, as text or JSON.

    A breakdown that :func:`actual_security` computed from ``scope`` itself
    is written from its kernel.  Any other breakdown is written from the
    kernel of ``actual_security(scope)`` if it equals that breakdown, and
    refused with an :class:`InputError` if not.
    """
    if format == "json":
        template, order = _REPORT_JSON
        labels = tuple(map(_quote, _scope_labels(scope)))
    elif format == "text":
        template, order = _REPORT_TEXT
        labels = (scope.id, scope.channel, scope.vector or "-", scope.index or "-")
    else:
        raise InputError(f"unknown report format {format!r}; expected text or json")
    kernel = breakdown._kernel
    if kernel is None or kernel[-1] is not scope:
        kernel = _scope_kernel(breakdown, scope)
    try:
        text = template % order((
            *labels,
            *_porosity_counts(scope.porosity),
            *_control_counts(scope.controls),
            *_by_category(scope.limitations),
            *_kernel_values(*kernel),
        ))
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
    try:
        scope, _ = _parse_scope_obj(doc.get("scope"))
    except ScopeFormatError as exc:
        raise ScopeFormatError(f"$.scope{exc}") from None
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
# keys in ``emit_json`` order.  Every rule result and score is written from
# its kernel alone (see ``trust.RuleResult`` and ``trust.TrustScore``).  A
# result's head, everything but its value, is one of the published rules'
# 18, shared by many applicants, so the text and JSON pieces of each head
# are built once and kept; only the applicant ids and the values are
# written per applicant.  Each value is written in the order the report
# shows it, its numerator and denominator before its decimal, so a value
# past the int-digit limit or the float range fails at the same point in
# every report.

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


class _Pieces(dict):
    """The pieces a rule head is written with, built on first use: its text
    label, its excluded lines, its whole text when undefined and its JSON
    object up to the value."""

    def __missing__(self, head):
        prop, rule_id, reason, excluded = head
        label = f"  {rule_id:<32}"
        lines = "".join([f"\n    excluded {rule}: {why}" for rule, why in excluded])
        pairs = ", ".join(f"[{', '.join(map(json.dumps, pair))}]" for pair in excluded)
        json_head = _RULE_HEAD % {
            "rule_id": json.dumps(rule_id),
            "property": _PROPERTY_KEYS[prop],
            "undefined_reason": json.dumps(reason),
            "excluded": f"[{pairs}]",
        }
        self[head] = pieces = (label, lines, f"{label}undefined: {reason}{lines}", json_head)
        return pieces


_PIECES = _Pieces()
_quoted = lru_cache(maxsize=64)(json.dumps)


@lru_cache(maxsize=64)
def _combined_label(mode: str) -> str:
    """The text label of a score's combined line, padded as a rule's is."""
    return f"  {f'combined({mode})':<32}"


def _applicant_json(applicant_id: str, results: Sequence[RuleResult], score: TrustScore) -> str:
    per_property, num, den, mode, _ = score._kernel
    members = sorted([
        f'{_PROPERTY_KEYS[prop]}: "{n}/{d}"' if d else f"{_PROPERTY_KEYS[prop]}: null"
        for prop, n, d in per_property
    ])
    texts = []
    for r in results:
        head, n, d = r._kernel
        json_head = _PIECES[head][3]
        texts.append(f'{json_head}"{n}/{d}"}}' if d else json_head + "null}")
    return _APPLICANT_JSON % (
        json.dumps(applicant_id), f"{num}/{den}", num / den, _quoted(mode),
        ", ".join(members), ", ".join(texts),
    )


def _trust_text(scored: Iterable[tuple[str, Sequence[RuleResult], TrustScore]]) -> str:
    lines: list[str] = []
    for applicant_id, results, score in scored:
        lines.append(f"applicant: {applicant_id}")
        for r in results:
            head, num, den = r._kernel
            label, excluded, undefined, _ = _PIECES[head]
            lines.append(f"{label}{num}/{den} ({num / den:.6f}){excluded}" if den else undefined)
        _, num, den, mode, _ = score._kernel
        lines.append(f"{_combined_label(mode)}{num}/{den} ({num / den:.6f})")
        lines.append("")
    return "\n".join(lines)


def render_trust_report(
    scored: Iterable[tuple[str, Sequence[RuleResult], TrustScore]],
    format: str = "text",
) -> bytes:
    """Render per-applicant rule values and combined trust scores, reading
    ``scored`` once, in order, so it may be an iterator.

    Every result and score is written from its kernel's ints, so ``scored``
    holds the outputs of :func:`~ravkit.trust.score_applicant` or of the
    published rules, or copies of them.
    """
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
