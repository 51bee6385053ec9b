"""Deterministic report rendering: text tables and schema-versioned JSON.

Reports always echo the full input counts next to the scores: a score on
its own hides the data it came from, and the data is the part an engineer
can act on.  JSON output uses sorted keys, rationals as exact ``num/den``
strings, and floats (log-derived quantities only) fixed to six decimals,
so two runs on the same input are byte-identical.  ``parse_report``
recovers every rational intermediate exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence, Union

from .errors import DigitLimitError, InputError
from .ingest import ScopeEntry, _parse_scope_obj, load_json, scope_to_obj
from .metrics import (
    LIMITATION_CATEGORIES,
    ControlClass,
    RavBreakdown,
    Scope,
    Weights,
)
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


def breakdown_to_obj(breakdown: RavBreakdown) -> dict:
    return {
        "opsec_sum": fraction_str(breakdown.opsec_sum),
        "opsec_base": breakdown.opsec_base,
        "lc_sum": fraction_str(breakdown.lc_sum),
        "mc_per_class": {
            cls.value: fraction_str(breakdown.mc_per_class[cls]) for cls in ControlClass
        },
        "mc_sum": fraction_str(breakdown.mc_sum),
        "mc_class_a": fraction_str(breakdown.mc_class_a),
        "mc_class_b": fraction_str(breakdown.mc_class_b),
        "mc_vg": fraction_str(breakdown.mc_vg),
        "tc_per_class": {
            cls.value: fraction_str(breakdown.tc_per_class[cls]) for cls in ControlClass
        },
        "tc_base": breakdown.tc_base,
        "fc_base": breakdown.fc_base,
        "weights": {
            name: fraction_str(breakdown.weights.for_category(name))
            for name in LIMITATION_CATEGORIES
        },
        "seclim_sum": fraction_str(breakdown.seclim_sum),
        "seclim_base": breakdown.seclim_base,
        "actsec": breakdown.actsec,
    }


def render_report(breakdown: RavBreakdown, scope: Scope, format: str = "text") -> bytes:
    """Render one scope's breakdown, inputs included, as text or JSON."""
    if format not in FORMATS:
        raise InputError(f"unknown report format {format!r}; expected text or json")
    try:
        if format == "json":
            return emit_json(
                {
                    "schema": REPORT_SCHEMA,
                    "scope": scope_to_obj(scope),
                    "breakdown": breakdown_to_obj(breakdown),
                }
            )
        return _render_text(breakdown, scope)
    except ValueError:
        # str() of an echoed count past the int-digit limit (an aggregate
        # can sum counts that each parsed to one past it).
        raise DigitLimitError() from None


def _class_pairs(values: Mapping[ControlClass, Fraction]) -> str:
    return " ".join(
        f"{cls.abbreviation}={fraction_str(values[cls])}" for cls in ControlClass
    )


def _render_text(b: RavBreakdown, scope: Scope) -> bytes:
    lines = [
        f"rav report: {scope.id}",
        f"scope: channel={scope.channel} vector={scope.vector or '-'} index={scope.index or '-'}",
        "",
        "inputs",
        "  porosity     visibility={visibility} access={access} trust={trust}".format(
            **scope.porosity.as_dict()
        ),
        "  controls     "
        + " ".join(f"{cls.abbreviation}={scope.controls.get(cls)}" for cls in ControlClass),
        "  limitations  "
        + " ".join(f"{name}={getattr(scope.limitations, name)}" for name in LIMITATION_CATEGORIES),
        "",
        "pipeline",
        f"  opsec_sum    {fraction_str(b.opsec_sum)}",
        f"  opsec_base   {b.opsec_base:.6f}",
        f"  lc_sum       {fraction_str(b.lc_sum)}",
        f"  fc_base      {b.fc_base:.6f}",
        f"  mc_per_class {_class_pairs(b.mc_per_class)}",
        f"  mc_sum       {fraction_str(b.mc_sum)} (class_a {fraction_str(b.mc_class_a)},"
        f" class_b {fraction_str(b.mc_class_b)}, vg {fraction_str(b.mc_vg)})",
        f"  tc_per_class {_class_pairs(b.tc_per_class)}",
        f"  tc_base      {b.tc_base:.6f}",
        "  weights      "
        + " ".join(
            f"{name}={fraction_str(b.weights.for_category(name))}"
            for name in LIMITATION_CATEGORIES
        ),
        f"  seclim_sum   {fraction_str(b.seclim_sum)}",
        f"  seclim_base  {b.seclim_base:.6f}",
        f"  actsec       {b.actsec:.6f}",
        "",
    ]
    return "\n".join(lines).encode("utf-8")


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


def trust_to_obj(
    applicant_id: str, results: Sequence[RuleResult], score: TrustScore
) -> dict:
    return {
        "applicant_id": applicant_id,
        "rules": [
            {
                "rule_id": r.rule_id,
                "property": r.property.value,
                "value": fraction_str(r.value) if r.defined else None,
                "undefined_reason": r.undefined_reason,
                "excluded": [list(pair) for pair in r.excluded],
            }
            for r in results
        ],
        "per_property": {
            prop.value: (fraction_str(v) if v is not None else None)
            for prop, v in score.per_property.items()
        },
        "combined": fraction_str(score.combined),
        "combined_decimal": float(score.combined),
        "mode": score.mode,
    }


def render_trust_report(
    scored: Sequence[tuple[str, Sequence[RuleResult], TrustScore]],
    format: str = "text",
) -> bytes:
    """Render per-applicant rule values and combined trust scores."""
    if format == "json":
        return emit_json(
            {
                "schema": TRUST_SCHEMA,
                "applicants": [trust_to_obj(aid, res, sc) for aid, res, sc in scored],
            }
        )
    if format != "text":
        raise InputError(f"unknown report format {format!r}; expected text or json")
    lines: list[str] = []
    for applicant_id, results, score in scored:
        lines.append(f"applicant: {applicant_id}")
        for r in results:
            if r.defined:
                lines.append(
                    f"  {r.rule_id:<32}{fraction_str(r.value)} ({float(r.value):.6f})"
                )
            else:
                lines.append(f"  {r.rule_id:<32}undefined: {r.undefined_reason}")
            for rule_id, reason in r.excluded:
                lines.append(f"    excluded {rule_id}: {reason}")
        label = f"combined({score.mode})"
        lines.append(f"  {label:<32}{fraction_str(score.combined)} ({float(score.combined):.6f})")
        lines.append("")
    return "\n".join(lines).encode("utf-8")


def render_findings(findings: Iterable[Any]) -> bytes:
    """Serialize critique findings under the ``ravkit-finding/1`` schema."""
    return emit_json(
        {
            "schema": FINDING_SCHEMA,
            "findings": [f.to_obj() for f in findings],
        }
    )
