"""Deterministic report rendering: text tables and schema-versioned JSON.

Reports always echo the full input counts next to the scores: a score on
its own hides the data it came from, and the data is the part an engineer
can act on.  JSON output uses sorted keys, rationals as exact ``num/den``
strings, and floats (log-derived quantities only) fixed to six decimals,
so two runs on the same input are byte-identical.  ``parse_report``
recovers every rational intermediate exactly.

The keys of ``ravkit-report/1`` and ``ravkit-trust/1`` are fixed, so those
reports are written from templates built once at import, with every key in
the fixed sorted order; only strings taken from the input are escaped per
report.  Findings still go through the generic emitter ``emit_json``, which
sorts each object's keys as it writes it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, Union

from .errors import DigitLimitError, FloatRangeError, InputError
from .ingest import ScopeEntry, _parse_scope_obj, load_json
from .metrics import (
    LIMITATION_CATEGORIES,
    ControlClass,
    RavBreakdown,
    Scope,
    Weights,
    _POROSITY_FIELDS,
    _by_category,
    _control_counts,
    _porosity_counts,
)

if TYPE_CHECKING:
    from .trust import RuleResult, TrustScore

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


def parse_fraction(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise InputError(f"not a num/den rational: {text!r}") from None


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
        out.append("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise InputError(f"JSON object keys must be strings, got {key!r}")
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
# ``emit_json`` gives them.  A report fills its template from one mapping of
# value strings; only the scope's id, channel, vector and index are quoted.

_FRACTIONS = ("opsec_sum", "lc_sum", "mc_sum", "mc_class_a", "mc_class_b", "mc_vg", "seclim_sum")
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


def _object(members: Mapping[str, str]) -> str:
    """An object's JSON text with its keys sorted as ``emit_json`` sorts them;
    each member is the text of its value: a placeholder or a template."""
    return "{" + ", ".join(f"{json.dumps(key)}: {members[key]}" for key in sorted(members)) + "}"


def _members(prefix: str, keys: Iterable[str], quoted: bool = False) -> str:
    text = '"%%(%s.%s)s"' if quoted else "%%(%s.%s)s"
    return _object({key: text % (prefix, key) for key in keys})


_REPORT_JSON = _object(
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
) + "\n"


def _assignments(prefix: str, keys: Sequence[str], labels: Sequence[str] = ()) -> str:
    """The text report's ``label=value`` list; the labels default to the keys."""
    return " ".join(f"{label}=%({prefix}.{key})s" for label, key in zip(labels or keys, keys))


_REPORT_TEXT = "\n".join(
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
)


def _report_values(b: RavBreakdown, scope: Scope) -> dict[str, Any]:
    """The numbers both report templates share, by placeholder name."""
    values: dict[str, Any] = dict(zip(_FLOATS, _floats(b)))
    fractions = (
        *_fractions(b),
        *_by_class(b.mc_per_class),
        *_by_class(b.tc_per_class),
        *_by_category(b.weights),
    )
    values.update(zip(_FRACTION_NAMES, map(fraction_str, fractions)))
    counts = (
        *_porosity_counts(scope.porosity),
        *_control_counts(scope.controls),
        *_by_category(scope.limitations),
    )
    values.update(zip(_COUNT_NAMES, counts))
    return values


def render_report(breakdown: RavBreakdown, scope: Scope, format: str = "text") -> bytes:
    """Render one scope's breakdown, inputs included, as text or JSON."""
    if format not in FORMATS:
        raise InputError(f"unknown report format {format!r}; expected text or json")
    values = _report_values(breakdown, scope)
    if format == "json":
        values.update(zip(_SCOPE_LABELS, map(json.dumps, _scope_labels(scope))))
        template = _REPORT_JSON
    else:
        values.update(
            id=scope.id, channel=scope.channel, vector=scope.vector or "-", index=scope.index or "-"
        )
        template = _REPORT_TEXT
    try:
        text = template % values
    except ValueError:
        # str() of an echoed count past the int-digit limit (an aggregate
        # can sum counts that each parsed to one past it).
        raise DigitLimitError() from None
    return text.encode("utf-8")


def parse_report(data: Union[bytes, str]) -> tuple[Scope, RavBreakdown]:
    """Recover the scope and every intermediate from a JSON report."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = load_json(data, InputError, "invalid report JSON")
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise InputError(f"not a {REPORT_SCHEMA} document")
    entry: ScopeEntry = _parse_scope_obj(doc.get("scope"), "$.scope")
    raw = doc.get("breakdown")
    if not isinstance(raw, dict):
        raise InputError("$.breakdown: expected an object")

    def frac(key: str) -> Fraction:
        return parse_fraction(raw[key])

    def per_class(key: str) -> dict[ControlClass, Fraction]:
        return {cls: parse_fraction(raw[key][cls.value]) for cls in ControlClass}

    def number(key: str) -> float:
        value = raw[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
        raise InputError(f"$.breakdown.{key}: expected a number")

    try:
        weights = Weights(
            **{name: parse_fraction(raw["weights"][name]) for name in LIMITATION_CATEGORIES},
            mc_vg=frac("mc_vg"),
        )
        breakdown = RavBreakdown(
            opsec_sum=frac("opsec_sum"),
            opsec_base=number("opsec_base"),
            lc_sum=frac("lc_sum"),
            mc_per_class=per_class("mc_per_class"),
            mc_sum=frac("mc_sum"),
            mc_class_a=frac("mc_class_a"),
            mc_class_b=frac("mc_class_b"),
            mc_vg=frac("mc_vg"),
            tc_per_class=per_class("tc_per_class"),
            tc_base=number("tc_base"),
            fc_base=number("fc_base"),
            weights=weights,
            seclim_sum=frac("seclim_sum"),
            seclim_base=number("seclim_base"),
            actsec=number("actsec"),
        )
    except KeyError as exc:
        raise InputError(f"$.breakdown: missing field {exc.args[0]!r}") from None
    except TypeError:
        # A per-class or weights field that is not an object.
        raise InputError("$.breakdown: a field has the wrong type") from None
    return entry.scope, breakdown


# ---------------------------------------------------------------------------
# Trust reports
# ---------------------------------------------------------------------------
#
# Like the rav report, a trust report's objects are templates with their
# keys in ``emit_json`` order; ids, rule ids and reasons are quoted per call.

_RULE_JSON = _object(
    {
        key: f"%({key})s"
        for key in ("rule_id", "property", "value", "undefined_reason", "excluded")
    }
)
_APPLICANT_JSON = _object(
    {
        "applicant_id": "%(applicant_id)s",
        "rules": "[%(rules)s]",
        "per_property": "%(per_property)s",
        "combined": '"%(combined)s"',
        "combined_decimal": "%(combined_decimal).6f",
        "mode": "%(mode)s",
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


def _rule_json(r: RuleResult) -> str:
    excluded = ", ".join(f"[{', '.join(map(json.dumps, pair))}]" for pair in r.excluded)
    return _RULE_JSON % {
        "rule_id": json.dumps(r.rule_id),
        "property": _PROPERTY_KEYS[r.property],
        "value": _fraction_or_null(r.value),
        "undefined_reason": _string_or_null(r.undefined_reason),
        "excluded": f"[{excluded}]",
    }


def _applicant_json(applicant_id: str, results: Sequence[RuleResult], score: TrustScore) -> str:
    per_property = sorted(
        (_PROPERTY_KEYS[prop], _fraction_or_null(value))
        for prop, value in score.per_property.items()
    )
    return _APPLICANT_JSON % {
        "applicant_id": json.dumps(applicant_id),
        "rules": ", ".join(map(_rule_json, results)),
        "per_property": "{" + ", ".join(f"{key}: {value}" for key, value in per_property) + "}",
        "combined": fraction_str(score.combined),
        "combined_decimal": float(score.combined),
        "mode": json.dumps(score.mode),
    }


def _trust_text(scored: Sequence[tuple[str, Sequence[RuleResult], TrustScore]]) -> str:
    lines: list[str] = []
    for applicant_id, results, score in scored:
        lines.append(f"applicant: {applicant_id}")
        for r in results:
            if r.value is not None:
                lines.append(f"  {r.rule_id:<32}{fraction_str(r.value)} ({float(r.value):.6f})")
            else:
                lines.append(f"  {r.rule_id:<32}undefined: {r.undefined_reason}")
            for rule_id, reason in r.excluded:
                lines.append(f"    excluded {rule_id}: {reason}")
        label = f"combined({score.mode})"
        lines.append(f"  {label:<32}{fraction_str(score.combined)} ({float(score.combined):.6f})")
        lines.append("")
    return "\n".join(lines)


def render_trust_report(
    scored: Sequence[tuple[str, Sequence[RuleResult], TrustScore]],
    format: str = "text",
) -> bytes:
    """Render per-applicant rule values and combined trust scores."""
    try:
        if format == "json":
            applicants = ", ".join(_applicant_json(*entry) for entry in scored)
            return (_TRUST_JSON % applicants).encode("utf-8")
        if format != "text":
            raise InputError(f"unknown report format {format!r}; expected text or json")
        return _trust_text(scored).encode("utf-8")
    except OverflowError:
        # float() of a rule value or combined score past the float range.
        raise FloatRangeError() from None


def render_findings(findings: Iterable[Any]) -> bytes:
    """Serialize critique findings under the ``ravkit-finding/1`` schema."""
    return emit_json(
        {
            "schema": FINDING_SCHEMA,
            "findings": [f.to_obj() for f in findings],
        }
    )
