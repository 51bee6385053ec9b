from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ravkit.metrics import (
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Scope,
    _KernelInts,
    toy_scope,
)
from ravkit.report import emit_json

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def toy() -> Scope:
    return toy_scope()


def random_scope(rng: random.Random, max_count: int = 3, allow_empty: bool = False) -> Scope:
    """A random valid scope; zero-porosity scopes keep zero limitations."""
    porosity = PorosityCounts(
        rng.randrange(max_count + 1), rng.randrange(max_count + 1), rng.randrange(max_count + 1)
    )
    controls = ControlCounts(
        **{cls.value.replace("-", "_"): rng.randrange(max_count + 1) for cls in ControlClass}
    )
    if porosity.total == 0 and not allow_empty:
        porosity = PorosityCounts(1 + rng.randrange(max_count), rng.randrange(max_count + 1), 0)
    if porosity.total == 0:
        limitations = LimitationCounts()
    else:
        limitations = LimitationCounts(*(rng.randrange(max_count + 1) for _ in range(5)))
    return Scope(
        id=f"random-{rng.randrange(10**9)}",
        porosity=porosity,
        controls=controls,
        limitations=limitations,
    )


#: The ``_kernel`` slot itself, read through its member descriptor.
_KERNEL_SLOT = _KernelInts.__dict__["_kernel"]


def holds_kernel(obj) -> bool:
    """Whether ``obj`` has its ``_kernel`` slot set."""
    try:
        _KERNEL_SLOT.__get__(obj)
    except AttributeError:
        return False
    return True


def carries_kernel(twin, original) -> bool:
    """Whether ``twin`` holds a kernel equal to ``original``'s."""
    return holds_kernel(twin) and twin._kernel == original._kernel


def fraction_str(value: Fraction) -> str:
    """A rational as the reports write it: ``num/den`` in lowest terms."""
    return f"{value.numerator}/{value.denominator}"


# The trust report as ``emit_json`` and plain line lists write it, from the
# fields of each result and score alone: the oracle of the fixed-schema
# trust emitter, which writes from the kernels.


def oracle_trust_to_obj(applicant_id, results, score) -> dict:
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


def oracle_trust_report(scored, format: str) -> bytes:
    if format == "json":
        return emit_json(
            {
                "schema": "ravkit-trust/1",
                "applicants": [oracle_trust_to_obj(aid, res, sc) for aid, res, sc in scored],
            }
        )
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
