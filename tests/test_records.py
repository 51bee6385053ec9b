"""Behaviour of every frozen record class: equality, hashing, repr,
immutability, ``dataclasses.fields``/``replace``, copying and pickling.

These are the methods ``@dataclass(frozen=True, slots=True)`` generates; the
record classes must keep them whether or not ``dataclass`` builds them.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from ravkit.critique import CollisionBounds, CritiqueFinding
from ravkit.errors import DomainError
from ravkit.ingest import ScanReport, ScopeDocument, ScopeEntry
from ravkit.metrics import (
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    RavBreakdown,
    Scope,
    Weights,
    actual_security,
    toy_scope,
)
from ravkit.symbolic import EquivalenceResult, FormalVar, SymbolicBreakdown, symbolic_breakdown
from ravkit.trust import (
    ApplicantRecord,
    Polarity,
    RatioRule,
    Reference,
    RuleResult,
    TrustProperty,
    TrustScore,
)

_CONTROLS = tuple(cls.value.replace("-", "_") for cls in ControlClass)
_BREAKDOWN = (
    "opsec_sum", "opsec_base", "lc_sum", "mc_per_class", "mc_sum", "mc_class_a",
    "mc_class_b", "mc_vg", "tc_per_class", "tc_base", "fc_base", "weights",
    "seclim_sum", "seclim_base", "actsec",
)
_RECORD = (
    "applicant_id", "months_unemployed", "months_eligible", "criminal_offenses_known",
    "age_years", "legal_adult_age", "past_employer_count", "hours_alone_per_day",
    "working_hours_per_day", "employees_in_community", "community_population",
    "references_positive", "references_neutral", "references_negative",
)


def _scope(scope_id="toy"):
    return Scope(scope_id, porosity=PorosityCounts(1, 1, 0),
                 controls=ControlCounts(authentication=1), limitations=LimitationCounts(1, 1))


def _other_scope():
    return Scope("other", porosity=PorosityCounts(2, 1, 1), limitations=LimitationCounts(0, 1))


# name -> (make(variant), field names, one field and a new value for replace,
# hashable).  make(0) and make(1) are unequal instances of the class.
CASES = {
    "PorosityCounts": (lambda v: PorosityCounts(1, 2 + v, 0),
                       ("visibility", "access", "trust"), ("trust", 5), True),
    "ControlCounts": (lambda v: ControlCounts(authentication=1, alarm=v), _CONTROLS,
                      ("privacy", 2), True),
    "LimitationCounts": (lambda v: LimitationCounts(1, 0, v),
                         ("vulnerabilities", "weaknesses", "concerns", "exposures", "anomalies"),
                         ("anomalies", 4), True),
    "Scope": (lambda v: _scope(f"s{v}"),
              ("id", "channel", "vector", "index", "porosity", "controls", "limitations"),
              ("vector", "internet"), True),
    "Weights": (lambda v: Weights(*(Fraction(i + v, 3) for i in range(6))),
                ("vulnerabilities", "weaknesses", "concerns", "exposures", "anomalies", "mc_vg"),
                ("mc_vg", Fraction(1, 7)), True),
    "RavBreakdown": (lambda v: actual_security(toy_scope() if v == 0 else _other_scope()),
                     _BREAKDOWN, ("actsec", 1.5), False),
    "ScopeEntry": (lambda v: ScopeEntry(_scope(f"s{v}"), {"visibility": "h"}),
                   ("scope", "units"), ("units", {}), False),
    "ScopeDocument": (lambda v: ScopeDocument((ScopeEntry(_scope(f"s{v}")),)), ("entries",),
                      ("entries", ()), False),
    "ScanReport": (lambda v: ScanReport(PorosityCounts(1, 2, 0), 1, 1 + v, 2, {"os": 1}),
                   ("porosity", "hosts_up", "hosts_total", "open_ports", "ignored_elements"),
                   ("open_ports", 9), False),
    "CritiqueFinding": (lambda v: CritiqueFinding("formula", {"x": v}, {"y": 1.5}, "holds", "n"),
                        ("kind", "inputs", "scores", "verdict", "narrative"),
                        ("narrative", "m"), False),
    "CollisionBounds": (lambda v: CollisionBounds(1, 2, 3 + v), ("porosity", "control", "limitation"),
                        ("control", 0), True),
    "Reference": (lambda v: Reference(f"e{v}", Polarity.NEUTRAL), ("employer_id", "polarity"),
                  ("polarity", Polarity.NEGATIVE), True),
    "ApplicantRecord": (lambda v: ApplicantRecord("a", 2 + v, 10, past_employer_count=3,
                                                  references_negative=1,
                                                  hours_alone_per_day=Fraction(1, 2),
                                                  working_hours_per_day=8),
                        _RECORD, ("age_years", 40), True),
    "RuleResult": (lambda v: RuleResult(TrustProperty.POROSITY, f"r{v}", Fraction(1, 3)),
                   ("property", "rule_id", "value", "undefined_reason", "excluded"),
                   ("excluded", (("a", "b"),)), True),
    "TrustScore": (lambda v: TrustScore({TrustProperty.SIZE: Fraction(v)}, Fraction(v), "sum"),
                   ("per_property", "combined", "mode", "undefined_reasons"),
                   ("mode", "max"), False),
    "RatioRule": (lambda v: RatioRule(f"r{v}", TrustProperty.SIZE, "age_years", "months_eligible"),
                  ("rule_id", "property", "numerator", "denominator"), ("numerator", "x"), True),
    "FormalVar": (lambda v: FormalVar(f"h{v}"), ("name",), ("name", "p"), True),
    "SymbolicBreakdown": (
        lambda v: symbolic_breakdown(toy_scope(), {"visibility": "h"} if v else None),
        ("opsec_argument", "controls_argument", "seclim_argument", "score"),
        ("score", None), True),
    "EquivalenceResult": (lambda v: EquivalenceResult(bool(v), "sampled", {"h": Fraction(2)}),
                          ("equivalent", "method", "witness"), ("method", "structural"), False),
}


def make(name, variant=0):
    return CASES[name][0](variant)


def field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in CASES[type(obj).__name__][1])


@pytest.mark.parametrize("name", CASES)
class TestRecordClass:
    def test_fields_and_match_args(self, name):
        cls, names = type(make(name)), CASES[name][1]
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert tuple(f.name for f in dataclasses.fields(make(name))) == names
        assert dataclasses.is_dataclass(cls)
        if name != "ApplicantRecord":
            assert cls.__match_args__ == names

    def test_repr_is_the_dataclass_repr(self, name):
        obj = make(name)
        fields = ", ".join(f"{n}={getattr(obj, n)!r}" for n in CASES[name][1])
        assert repr(obj) == f"{type(obj).__qualname__}({fields})"

    def test_equality(self, name):
        a, b = make(name), make(name, 1)
        assert a == make(name) and not a != make(name)
        assert a != b and not a == b
        assert a.__eq__(object()) is NotImplemented
        other = next(make(n) for n in CASES if n != name)
        assert a.__eq__(other) is NotImplemented and a != other

    def test_hash(self, name):
        a = make(name)
        if CASES[name][3]:
            assert hash(a) == hash(make(name))
            assert hash(a) == hash(field_values(a))
            assert len({a, make(name)}) == 1
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    def test_frozen(self, name):
        a, field = make(name), CASES[name][1][0]
        before = field_values(a)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        # A name that is not a field is refused too.  dataclass(slots=True)
        # refuses it with a TypeError, since its generated __setattr__ names
        # the class it replaced; a written-out class can raise the
        # FrozenInstanceError that field names get.
        with pytest.raises((TypeError, dataclasses.FrozenInstanceError)):
            a.extra = 1
        assert field_values(a) == before

    def test_replace(self, name):
        a = make(name)
        field, value = CASES[name][2]
        b = dataclasses.replace(a, **{field: value})
        assert type(b) is type(a) and getattr(b, field) == value
        for n in CASES[name][1]:
            if n != field:
                assert getattr(b, n) is getattr(a, n)
        with pytest.raises(TypeError):
            dataclasses.replace(a, no_such_field=1)

    def test_copy_and_pickle(self, name):
        a = make(name)
        for b in (copy.copy(a), copy.deepcopy(a),
                  *(pickle.loads(pickle.dumps(a, protocol)) for protocol in (0, 2, 5))):
            assert type(b) is type(a) and b is not a
            assert field_values(b) == field_values(a)


def test_every_record_class_is_covered():
    import ravkit.critique
    import ravkit.ingest
    import ravkit.metrics
    import ravkit.symbolic
    import ravkit.trust

    found = {
        name
        for module in (ravkit.metrics, ravkit.ingest, ravkit.critique, ravkit.trust, ravkit.symbolic)
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    }
    assert found == set(CASES)


class TestRecordValidation:
    def test_count_messages(self):
        with pytest.raises(DomainError, match=r"^visibility must be an integer count, got 1\.5$"):
            PorosityCounts(1.5)
        with pytest.raises(DomainError, match=r"^alarm must be >= 0, got -1$"):
            ControlCounts(alarm=-1)
        with pytest.raises(DomainError, match=r"^concerns must be an integer count, got True$"):
            LimitationCounts(concerns=True)

    def test_scope_messages(self):
        with pytest.raises(DomainError, match="^scope id must be non-empty$"):
            Scope("")
        with pytest.raises(DomainError, match=r"^unknown channel 'mail'; expected one of human"):
            Scope("x", channel="mail")
        assert Scope("x", channel="aggregate").channel == "aggregate"

    def test_scope_defaults(self):
        scope = Scope("x")
        assert (scope.channel, scope.vector, scope.index) == ("data-network", "", "")
        assert scope.porosity == PorosityCounts()
        assert scope.controls == ControlCounts()
        assert scope.limitations == LimitationCounts()
        assert ScopeEntry(scope).units == {}

    def test_other_checks(self):
        with pytest.raises(DomainError, match=r"^verdict must be holds\|violated, got 'maybe'$"):
            CritiqueFinding("k", {}, {}, "maybe", "n")
        with pytest.raises(DomainError, match="^formal variable name must be non-empty$"):
            FormalVar("")
        with pytest.raises(DomainError, match="^undefined rule 'r' needs a reason$"):
            RuleResult(TrustProperty.SIZE, "r", None)
        with pytest.raises(DomainError, match=r"^rule 'r' value must be >= 0, got -1/2$"):
            RuleResult(TrustProperty.SIZE, "r", Fraction(-1, 2))
        assert not EquivalenceResult(False, "sampled")
        assert CollisionBounds() == CollisionBounds(3, 3, 3)


class TestApplicantReferences:
    REFS = [Reference("e1", Polarity.POSITIVE), Reference("e2", Polarity.NEGATIVE),
            Reference("e3", Polarity.NEGATIVE)]

    def test_references_are_counted(self):
        record = ApplicantRecord("a", references=self.REFS, past_employer_count=3)
        assert (record.references_positive, record.references_neutral,
                record.references_negative) == (1, 0, 2)
        assert record == ApplicantRecord("a", past_employer_count=3, references_positive=1,
                                         references_negative=2)
        assert "references=" not in repr(record).replace("references_", "")

    def test_references_is_the_seventh_positional_argument(self):
        record = ApplicantRecord("a", 0, 0, 0, 0, 18, self.REFS[:1], 2)
        assert record.references_positive == 1 and record.past_employer_count == 2
        assert ApplicantRecord.references is None

    def test_reference_messages(self):
        with pytest.raises(DomainError, match="^give references or reference counts, not both$"):
            ApplicantRecord(references=self.REFS, references_neutral=1, past_employer_count=5)
        with pytest.raises(DomainError, match="^references require at least one past employer$"):
            ApplicantRecord(references=self.REFS)
        with pytest.raises(DomainError, match="^more references than past employers$"):
            ApplicantRecord(references=self.REFS, past_employer_count=2)
        with pytest.raises(DomainError, match="^references_positive must be a non-negative "
                                              "integer, got -1$"):
            ApplicantRecord(references_positive=-1)
        with pytest.raises(AttributeError):
            ApplicantRecord(references=[object()], past_employer_count=1)

    def test_empty_references(self):
        assert ApplicantRecord(references=[]) == ApplicantRecord()
        assert ApplicantRecord(references=iter(self.REFS), past_employer_count=3) == \
            ApplicantRecord(references=self.REFS, past_employer_count=3)

    def test_replace_keeps_the_counts(self):
        record = ApplicantRecord("a", references=self.REFS, past_employer_count=3)
        changed = dataclasses.replace(record, applicant_id="b")
        assert changed.applicant_id == "b" and changed.references_negative == 2
        again = dataclasses.replace(record, references=self.REFS[:1], references_positive=0,
                                    references_negative=0)
        assert again.references_positive == 1 and again.references_negative == 0

    def test_hours_are_coerced(self):
        record = ApplicantRecord(hours_alone_per_day=1, working_hours_per_day=Fraction(8))
        assert type(record.hours_alone_per_day) is Fraction
        with pytest.raises(DomainError, match="^hours_alone_per_day must be >= 0, got -1$"):
            ApplicantRecord(hours_alone_per_day=-1)
        with pytest.raises(DomainError, match="^hours_alone_per_day cannot exceed "
                                              "working_hours_per_day$"):
            ApplicantRecord(hours_alone_per_day=2, working_hours_per_day=1)


class TestKernelBreakdown:
    """``actual_security`` keeps the kernel ints and builds the rational
    fields when one is first read; every record method sees what a
    breakdown built field by field has."""

    SCOPES = (toy_scope(), Scope("empty"), _other_scope(),
              Scope("zero-porosity", controls=ControlCounts(alarm=3)))

    @pytest.mark.parametrize("scope", SCOPES, ids=lambda s: s.id)
    def test_unread_breakdown_is_its_eager_twin(self, scope):
        eager = dataclasses.replace(actual_security(scope))
        assert eager._kernel is None
        checks = {
            "eq": lambda b: b == eager and eager == b,
            "repr": lambda b: repr(b) == repr(eager),
            "pickle": lambda b: pickle.loads(pickle.dumps(b)) == eager,
            "copy": lambda b: copy.copy(b) == eager and copy.deepcopy(b) == eager,
            "fields": lambda b: [getattr(b, f.name) for f in dataclasses.fields(b)]
            == [getattr(eager, f.name) for f in dataclasses.fields(eager)],
            "match": lambda b: b.__match_args__ == _BREAKDOWN,
        }
        for name, check in checks.items():
            assert check(actual_security(scope)), name
        with pytest.raises(TypeError, match="unhashable"):
            hash(actual_security(scope))
        b = actual_security(scope)
        for name in _BREAKDOWN:
            value = getattr(b, name)
            if name.endswith("_per_class"):
                assert all(type(v) is Fraction for v in value.values())
            elif name == "weights":
                assert all(type(getattr(value, n)) is Fraction for n in value.__slots__)
                assert value.mc_vg == b.mc_vg
            elif not name.endswith(("_base", "actsec")):
                assert type(value) is Fraction, name
        assert pickle.loads(pickle.dumps(b))._kernel is None

    def test_kernel_slot_is_not_a_field(self):
        assert "_kernel" not in RavBreakdown.__slots__
        assert "_kernel" not in {f.name for f in dataclasses.fields(RavBreakdown)}
        b = actual_security(toy_scope())
        with pytest.raises(AttributeError, match="^'RavBreakdown' object has no attribute 'x'$"):
            b.x
        with pytest.raises(dataclasses.FrozenInstanceError):
            b._kernel = None
