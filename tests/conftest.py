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
    toy_scope,
)
from ravkit.trust import ApplicantRecord, RuleResult, TrustProperty

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


def ratio_result(record: ApplicantRecord, rule_id: str, prop: TrustProperty,
                 numerator: str, denominator: str) -> RuleResult:
    """A caller's own trust rule: one numeric record field divided by another."""
    den = Fraction(getattr(record, denominator))
    if den == 0:
        return RuleResult(prop, rule_id, None, f"{denominator} is zero")
    return RuleResult(prop, rule_id, Fraction(getattr(record, numerator)) / den)
