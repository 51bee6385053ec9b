"""Behaviour of every frozen record class: equality, hashing, repr,
immutability, ``dataclasses.fields``/``replace``, copying and pickling.

These are the methods ``@dataclass(frozen=True, slots=True)`` generates; the
record classes must keep them whether or not ``dataclass`` builds them.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
from fractions import Fraction

import pytest

from ravkit.critique import CollisionBounds, CritiqueFinding, collision_search
from ravkit.errors import DomainError, shown_number
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
from ravkit.ratfun import RationalFunction
from ravkit.symbolic import EquivalenceResult, SymbolicBreakdown, SymbolicScore, symbolic_breakdown
from ravkit.trust import (
    ApplicantRecord,
    RuleResult,
    TrustProperty,
    TrustScore,
    score_applicant,
    trust_combine,
)

from conftest import derives_kernel, holds_kernel

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


def _arguments() -> dict[str, tuple]:
    """One valid value per field of each ``CASES`` class, in slot order, no
    two of a class alike, so a value filled into the wrong slot shows."""
    porosity, controls = PorosityCounts(1, 2, 3), ControlCounts(*range(1, 11))
    limitations = LimitationCounts(*range(1, 6))
    scope = Scope("s", "human", "v", "i", porosity, controls, limitations)
    weights = Weights(*(Fraction(1, i) for i in range(2, 8)))
    entry = ScopeEntry(scope, {"visibility": "h"})
    return {
        "PorosityCounts": (1, 2, 3),
        "ControlCounts": tuple(range(1, 11)),
        "LimitationCounts": tuple(range(1, 6)),
        "Scope": ("s", "human", "v", "i", porosity, controls, limitations),
        "Weights": tuple(Fraction(1, i) for i in range(2, 8)),
        "RavBreakdown": (
            Fraction(1, 2), 0.5, Fraction(1, 3), {ControlClass.ALARM: Fraction(1)}, Fraction(1, 4),
            Fraction(1, 5), Fraction(1, 6), Fraction(1, 7), {ControlClass.PRIVACY: Fraction(2)},
            1.5, 2.5, weights, Fraction(1, 8), 3.5, 4.5,
        ),
        "ScopeEntry": (scope, {"access": "p"}),
        "ScopeDocument": ((entry,),),
        "ScanReport": (porosity, 1, 2, 3, {"os": 4}),
        "CritiqueFinding": ("kind", {"x": 1}, {"y": 2}, "holds", "narrative"),
        "CollisionBounds": (1, 2, 3),
        "ApplicantRecord": ("a", 1, 12, 2, 40, 18, 20, Fraction(1, 2), Fraction(8), 3, 100, 4, 5, 6),
        "RuleResult": (TrustProperty.POROSITY, "r", Fraction(1, 3), "why", (("a", "b"),)),
        "TrustScore": ({TrustProperty.SIZE: Fraction(1)}, Fraction(1, 3), "sum", (("a", "b"),)),
        "SymbolicBreakdown": (*map(RationalFunction.constant, (2, 3, 4)), SymbolicScore.constant(5)),
        "EquivalenceResult": (True, "sampled", {"h": Fraction(2)}),
    }


#: The fields a constructor keeps a copy of, not the caller's object.
_COPIED = {("ScopeEntry", "units")}


def test_each_field_holds_its_own_argument():
    arguments = _arguments()
    assert set(arguments) == set(CASES)
    for name, values in arguments.items():
        cls, names = type(make(name)), CASES[name][1]
        assert len(values) == len(names), name
        for obj in (cls(*values), cls(**dict(zip(names, values)))):
            for field, value in zip(names, values):
                if (name, field) in _COPIED:
                    held = getattr(obj, field)
                    assert held == value and held is not value, (name, field)
                else:
                    assert getattr(obj, field) is value, (name, field)


@pytest.mark.parametrize("name", CASES)
def test_trusted_builds_the_constructors_record(name):
    # _trusted fills through the same slot setters as the constructor,
    # without its checks.
    values = _arguments()[name]
    cls = type(make(name))
    obj = cls._trusted(values)
    assert type(obj) is cls and obj == cls(*values)
    for field, value in zip(CASES[name][1], values):
        assert getattr(obj, field) is value, field


@pytest.mark.parametrize("name", CASES)
class TestRecordClass:
    def test_fields_and_match_args(self, name):
        cls, names = type(make(name)), CASES[name][1]
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert tuple(f.name for f in dataclasses.fields(make(name))) == names
        assert dataclasses.is_dataclass(cls)
        assert cls.__match_args__ == names

    def test_init_parameters_are_the_slots(self, name):
        cls = type(make(name))
        code = cls.__init__.__code__
        params = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
        assert params == cls.__slots__

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
        with pytest.raises(DomainError, match="^undefined rule 'r' needs a reason$"):
            RuleResult(TrustProperty.SIZE, "r", None)
        with pytest.raises(DomainError, match=r"^rule 'r' value must be >= 0, got -1/2$"):
            RuleResult(TrustProperty.SIZE, "r", Fraction(-1, 2))
        assert not EquivalenceResult(False, "sampled")
        assert CollisionBounds() == CollisionBounds(3, 3, 3)

    # A refused value past the int-to-str digit limit cannot be written out
    # by str or repr; the message gives its sign and digit count instead.
    @pytest.mark.parametrize("call, message", [
        (lambda: CollisionBounds(-(10**5000)), "bounds.porosity must be >= 0, got -<5001 digits>"),
        (lambda: collision_search(-(10**5000)), "bounds must be >= 0, got -<5001 digits>"),
        (lambda: collision_search(1, 1e-9, 0, max_findings=-(10**5000)),
         "max_findings must be >= 0, got -<5001 digits>"),
        (lambda: PorosityCounts(-(10**5000)), "visibility must be >= 0, got -<5001 digits>"),
        (lambda: ApplicantRecord(months_unemployed=-(10**5000)),
         "months_unemployed must be a non-negative integer, got -<5001 digits>"),
        (lambda: RuleResult(TrustProperty.SIZE, "r", Fraction(-(10**5000), 3)),
         "rule 'r' value must be >= 0, got -<5001 digits>/3"),
    ], ids=["CollisionBounds", "bounds", "max_findings", "PorosityCounts", "ApplicantRecord",
            "RuleResult"])
    def test_refused_value_past_the_digit_limit(self, call, message):
        with pytest.raises(DomainError) as raised:
            call()
        assert str(raised.value) == message
        assert message.isprintable()

    def test_digit_counts_at_powers_of_ten(self):
        limit = sys.get_int_max_str_digits()
        assert shown_number(10**limit - 1) == "9" * limit
        assert shown_number(10**limit) == f"<{limit + 1} digits>"
        assert shown_number(-(10**5000) + 1) == "-<5000 digits>"
        assert shown_number(Fraction(1, 10**5000), str) == "1/<5001 digits>"
        assert shown_number(Fraction(-1, 3)) == "Fraction(-1, 3)"
        assert shown_number(2.5, str) == "2.5"


class TestApplicantReferences:
    COUNTS = {"references_positive": 1, "references_negative": 2}

    def test_reference_messages(self):
        with pytest.raises(DomainError, match="^references require at least one past employer$"):
            ApplicantRecord(**self.COUNTS)
        with pytest.raises(DomainError, match="^more references than past employers$"):
            ApplicantRecord(**self.COUNTS, past_employer_count=2)
        with pytest.raises(DomainError, match="^references_positive must be a non-negative "
                                              "integer, got -1$"):
            ApplicantRecord(references_positive=-1)

    def test_replace_keeps_the_counts(self):
        record = ApplicantRecord("a", **self.COUNTS, past_employer_count=3)
        changed = dataclasses.replace(record, applicant_id="b")
        assert changed.applicant_id == "b" and changed.references_negative == 2
        again = dataclasses.replace(record, references_positive=0, references_negative=1)
        assert again.references_positive == 0 and again.references_negative == 1

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

    @pytest.mark.parametrize("first", _BREAKDOWN)
    def test_first_read_fills_every_field(self, first):
        b = actual_security(toy_scope())
        slots = [RavBreakdown.__dict__[name] for name in _BREAKDOWN]
        for slot in slots:
            with pytest.raises(AttributeError):
                slot.__get__(b)  # unset: a member descriptor skips __getattr__
        getattr(b, first)
        eager = dataclasses.replace(actual_security(toy_scope()))
        assert [slot.__get__(b) for slot in slots] == [getattr(eager, n) for n in _BREAKDOWN]
        assert b._kernel is not None
        assert "_kernel" not in {f.name for f in dataclasses.fields(b)}

    def test_kernel_slot_is_not_a_field(self):
        assert "_kernel" not in RavBreakdown.__slots__
        assert "_kernel" not in {f.name for f in dataclasses.fields(RavBreakdown)}
        b = actual_security(toy_scope())
        with pytest.raises(AttributeError, match="^'RavBreakdown' object has no attribute 'x'$"):
            b.x
        with pytest.raises(dataclasses.FrozenInstanceError):
            b._kernel = None


_RESULT = ("property", "rule_id", "value", "undefined_reason", "excluded")
_SCORE = ("per_property", "combined", "mode", "undefined_reasons")


class TestKernelTrustRecords:
    """``score_applicant`` returns results and a score that hold only the
    kernel's ints and fill their fields when one is first read; every
    record method sees what the same objects built field by field have."""

    RECORDS = (
        ApplicantRecord("all", 2, 10, 1, 30, 18, 4, Fraction(1, 2), 8, 3, 7, 1, 1, 1),
        ApplicantRecord("porosity-only", employees_in_community=2, community_population=6),
        ApplicantRecord("two-excluded", months_eligible=4, working_hours_per_day=Fraction(15, 2),
                        hours_alone_per_day=Fraction(3, 4)),
    )

    @staticmethod
    def eager(record, mode):
        """The same results and score, built by the public constructors."""
        results, score = score_applicant(record, mode)
        results = [RuleResult(*(getattr(r, n) for n in _RESULT)) for r in results]
        return results, TrustScore(*(getattr(score, n) for n in _SCORE))

    @pytest.mark.parametrize("mode", ["average", "sum", "max"])
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.applicant_id)
    def test_unread_objects_are_their_eager_twins(self, record, mode):
        want_results, want_score = self.eager(record, mode)
        assert trust_combine(want_results, mode) == want_score
        for i, want in enumerate((*want_results, want_score)):
            def fresh():
                results, score = score_applicant(record, mode)
                return (*results, score)[i]

            checks = {
                "eq": lambda obj: obj == want and want == obj,
                "repr": lambda obj: repr(obj) == repr(want),
                "pickle": lambda obj: pickle.loads(pickle.dumps(obj)) == want,
                "copy": lambda obj: copy.copy(obj) == want and copy.deepcopy(obj) == want,
                "replace": lambda obj: dataclasses.replace(obj) == want,
                "fields": lambda obj: [getattr(obj, f.name) for f in dataclasses.fields(obj)]
                == [getattr(want, f.name) for f in dataclasses.fields(want)],
            }
            for name, check in checks.items():
                assert check(fresh()), (i, name)
            original = fresh()
            assert holds_kernel(original) and derives_kernel(want, original)
            assert derives_kernel(pickle.loads(pickle.dumps(original)), original)
            assert derives_kernel(dataclasses.replace(original), original)
            if isinstance(want, RuleResult):
                assert hash(fresh()) == hash(want)
                assert fresh().defined == want.defined
            else:
                with pytest.raises(TypeError, match="unhashable"):
                    hash(fresh())

    @pytest.mark.parametrize("first", [*(("result", n) for n in _RESULT),
                                       *(("score", n) for n in _SCORE)],
                             ids=lambda pair: ".".join(pair))
    def test_first_read_fills_every_field(self, first):
        kind, name = first
        record = self.RECORDS[2]
        results, score = score_applicant(record, "max")
        want_results, want_score = self.eager(record, "max")
        obj, want, names = ((results[0], want_results[0], _RESULT) if kind == "result"
                            else (score, want_score, _SCORE))
        cls = type(obj)
        slots = [cls.__dict__[n] for n in names]
        for slot in slots:
            with pytest.raises(AttributeError):
                slot.__get__(obj)  # unset: a member descriptor skips __getattr__
        getattr(obj, name)
        assert [slot.__get__(obj) for slot in slots] == [getattr(want, n) for n in names]
        assert obj._kernel is not None
        # The other objects of the same applicant are still unread.
        with pytest.raises(AttributeError):
            RuleResult.__dict__["value"].__get__(results[1])

    def test_kernel_slot_is_not_a_field(self):
        results, score = score_applicant(self.RECORDS[0])
        for obj in (*results, score):
            assert "_kernel" not in type(obj).__slots__
            assert "_kernel" not in {f.name for f in dataclasses.fields(obj)}
            with pytest.raises(AttributeError, match=f"^'{type(obj).__name__}' object has no "
                                                     "attribute 'x'$"):
                obj.x
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj._kernel = None
