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
from functools import partial

import pytest

from ravkit.critique import CollisionBounds, CritiqueFinding, collision_search
from ravkit.errors import DomainError, shown_number
from ravkit.ingest import ScanReport, ScopeDocument, ScopeEntry
from ravkit.metrics import (
    ControlClass,
    ControlCounts,
    LimitationCounts,
    PorosityCounts,
    Record,
    Scope,
    Weights,
    actual_security,
    toy_scope,
)
from ravkit.ratfun import RationalFunction
from ravkit.symbolic import (
    EquivalenceResult,
    SymbolicBreakdown,
    SymbolicScore,
    symbolic_breakdown,
    symbolic_rav,
)
from ravkit.trust import ApplicantRecord, RuleResult, score_applicant

from conftest import carries_kernel, holds_kernel
from test_metrics import _reference_actual_security
from test_trust_kernel import reference_score

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
    "SymbolicBreakdown": (
        lambda v: symbolic_breakdown(toy_scope(), {"visibility": "h"} if v else None),
        ("opsec_argument", "controls_argument", "seclim_argument", "score"),
        ("score", None), True),
    "EquivalenceResult": (lambda v: EquivalenceResult(bool(v), "sampled", {"h": Fraction(2)}),
                          ("equivalent", "method", "witness"), ("method", "structural"), False),
}


_RESULT = ("property", "rule_id", "value", "undefined_reason", "excluded")
_SCORE = ("per_property", "combined", "mode", "undefined_reasons")
_APPLICANTS = (
    ApplicantRecord("a", 2, 10, 1, 30, 18, 4, Fraction(1, 2), 8, 3, 7, 1, 1, 1),
    ApplicantRecord("b", employees_in_community=2, community_population=6),
)

# The records only ravkit builds, the breakdowns of actual_security and the
# results and scores of score_applicant: name -> (make(variant), field
# names, None, hashable).  They have no public constructor, so no replace.
OUTPUTS = {
    "RavBreakdown": (lambda v: actual_security(toy_scope() if v == 0 else _other_scope()),
                     _BREAKDOWN, None, False),
    "RuleResult": (lambda v: score_applicant(_APPLICANTS[v])[0][1], _RESULT, None, True),
    "TrustScore": (lambda v: score_applicant(_APPLICANTS[v], "sum")[1], _SCORE, None, False),
}
ALL = {**CASES, **OUTPUTS}


def make(name, variant=0):
    return ALL[name][0](variant)


def field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in ALL[type(obj).__name__][1])


def _arguments() -> dict[str, tuple]:
    """One valid value per field of each ``CASES`` class, in slot order, no
    two of a class alike, so a value filled into the wrong slot shows."""
    porosity, controls = PorosityCounts(1, 2, 3), ControlCounts(*range(1, 11))
    limitations = LimitationCounts(*range(1, 6))
    scope = Scope("s", "human", "v", "i", porosity, controls, limitations)
    entry = ScopeEntry(scope, {"visibility": "h"})
    return {
        "PorosityCounts": (1, 2, 3),
        "ControlCounts": tuple(range(1, 11)),
        "LimitationCounts": tuple(range(1, 6)),
        "Scope": ("s", "human", "v", "i", porosity, controls, limitations),
        "Weights": tuple(Fraction(1, i) for i in range(2, 8)),
        "ScopeEntry": (scope, {"access": "p"}),
        "ScopeDocument": ((entry,),),
        "ScanReport": (porosity, 1, 2, 3, {"os": 4}),
        "CritiqueFinding": ("kind", {"x": 1}, {"y": 2}, "holds", "narrative"),
        "CollisionBounds": (1, 2, 3),
        "ApplicantRecord": ("a", 1, 12, 2, 40, 18, 20, Fraction(1, 2), Fraction(8), 3, 100, 4, 5, 6),
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


class TestRecordClass:
    @pytest.mark.parametrize("name", CASES)
    def test_fields_and_match_args(self, name):
        cls, names = type(make(name)), CASES[name][1]
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert tuple(f.name for f in dataclasses.fields(make(name))) == names
        assert dataclasses.is_dataclass(cls)
        assert cls.__match_args__ == names

    @pytest.mark.parametrize("name", CASES)
    def test_init_parameters_are_the_slots(self, name):
        cls = type(make(name))
        code = cls.__init__.__code__
        params = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
        assert params == cls.__slots__

    @pytest.mark.parametrize("name", OUTPUTS)
    def test_match_args_without_a_constructor(self, name):
        cls = type(make(name))
        assert cls.__match_args__ == OUTPUTS[name][1] and cls.__slots__ == ()
        assert not dataclasses.is_dataclass(cls)
        with pytest.raises(TypeError, match=f"^cannot create '{name}' instances"):
            cls(*field_values(make(name)))
        with pytest.raises(TypeError):
            dataclasses.replace(make(name))

    @pytest.mark.parametrize("name", ALL)
    def test_repr_is_the_dataclass_repr(self, name):
        obj = make(name)
        fields = ", ".join(f"{n}={getattr(obj, n)!r}" for n in ALL[name][1])
        assert repr(obj) == f"{type(obj).__qualname__}({fields})"

    @pytest.mark.parametrize("name", ALL)
    def test_equality(self, name):
        a, b = make(name), make(name, 1)
        assert a == make(name) and not a != make(name)
        assert a != b and not a == b
        assert a.__eq__(object()) is NotImplemented
        other = next(make(n) for n in CASES if n != name)
        assert a.__eq__(other) is NotImplemented and a != other

    @pytest.mark.parametrize("name", ALL)
    def test_hash(self, name):
        a = make(name)
        if ALL[name][3]:
            assert hash(a) == hash(make(name))
            assert hash(a) == hash(field_values(a))
            assert len({a, make(name)}) == 1
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    @pytest.mark.parametrize("name", ALL)
    def test_frozen(self, name):
        a, field = make(name), ALL[name][1][0]
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

    @pytest.mark.parametrize("name", CASES)
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

    @pytest.mark.parametrize("name", ALL)
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
        and (dataclasses.is_dataclass(value) or issubclass(value, Record))
        and value is not Record and not name.startswith("_")
    }
    assert found == set(ALL)


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
        (lambda: ApplicantRecord(hours_alone_per_day=Fraction(-(10**5000), 3)),
         "hours_alone_per_day must be >= 0, got -<5001 digits>/3"),
        (lambda: score_applicant(ApplicantRecord(community_population=1), mode=10**5000),
         "unknown mode <5001 digits>; expected one of average, sum, max"),
        (lambda: Scope(id=10**5000), "scope id must be a string, got <5001 digits>"),
        (lambda: symbolic_rav(toy_scope(), {"visibility": "a"}).evaluate({"a": -(10**5000)}),
         "assignment for 'a' must be positive, got -<5001 digits>"),
    ], ids=["CollisionBounds", "bounds", "max_findings", "PorosityCounts", "ApplicantRecord",
            "hours", "mode", "Scope", "evaluate"])
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


def _kernel_records():
    """(id, fresh, oracle) for each breakdown and trust output the kernel
    tests read: ``fresh()`` builds the record anew, and ``oracle`` is the
    Fraction pipeline's named tuple of its fields."""
    scopes = (toy_scope(), Scope("empty"), _other_scope(),
              Scope("zero-porosity", controls=ControlCounts(alarm=3)))
    records = (
        ApplicantRecord("all", 2, 10, 1, 30, 18, 4, Fraction(1, 2), 8, 3, 7, 1, 1, 1),
        ApplicantRecord("porosity-only", employees_in_community=2, community_population=6),
        ApplicantRecord("two-excluded", months_eligible=4, working_hours_per_day=Fraction(15, 2),
                        hours_alone_per_day=Fraction(3, 4)),
    )
    cases = [(f"breakdown-{scope.id}", partial(actual_security, scope),
              _reference_actual_security(scope)) for scope in scopes]
    for record in records:
        for mode in ("average", "sum", "max"):
            results, score = reference_score(record, mode)
            for i, want in enumerate((*results, score)):
                def fresh(record=record, mode=mode, i=i):
                    results, score = score_applicant(record, mode)
                    return (*results, score)[i]

                cases.append((f"{record.applicant_id}-{mode}-{i}", fresh, want))
    return cases


KERNEL_RECORDS = _kernel_records()


def _assert_same(have, want, name):
    """``have`` equals ``want`` and is of its type, and so is each value of a dict."""
    assert type(have) is type(want) and have == want, name
    if isinstance(want, dict):
        assert [type(v) for v in have.values()] == [type(want[k]) for k in have], name


class TestKernelRecords:
    """A breakdown from ``actual_security`` and the results and score from
    ``score_applicant`` hold only their kernel.  Each field read computes
    that field from it, every record method sees what those reads give, and
    a copy or an unpickled twin holds the same kernel."""

    @pytest.mark.parametrize("fresh, oracle", [case[1:] for case in KERNEL_RECORDS],
                             ids=[case[0] for case in KERNEL_RECORDS])
    def test_every_field_read_is_the_oracles(self, fresh, oracle):
        obj = fresh()
        assert type(obj).__match_args__ == oracle._fields
        for name in oracle._fields:
            first = getattr(obj, name)
            _assert_same(first, getattr(oracle, name), name)
            # Nothing is cached: each read builds the field again.
            again = getattr(obj, name)
            _assert_same(again, first, name)
            if isinstance(first, dict):
                assert again is not first, name
        slots = [slot for cls in type(obj).__mro__ for slot in cls.__dict__.get("__slots__", ())]
        assert slots == ["_kernel"] and not hasattr(obj, "__dict__")

    @pytest.mark.parametrize("fresh, oracle", [case[1:] for case in KERNEL_RECORDS],
                             ids=[case[0] for case in KERNEL_RECORDS])
    def test_record_methods_see_the_field_reads(self, fresh, oracle):
        name = type(fresh()).__name__
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(oracle._fields, oracle))
        checks = {
            "eq": lambda obj: obj == fresh() and not obj != fresh(),
            "values": lambda obj: obj.__getstate__() == tuple(oracle),
            "repr": lambda obj: repr(obj) == f"{name}({fields})",
            "pickle": lambda obj: pickle.loads(pickle.dumps(obj)) == obj,
            "copy": lambda obj: copy.copy(obj) == obj and copy.deepcopy(obj) == obj,
        }
        for check_name, check in checks.items():
            assert check(fresh()), check_name
        original = fresh()
        assert holds_kernel(original)
        for twin in (pickle.loads(pickle.dumps(original)), copy.copy(original),
                     copy.deepcopy(original)):
            assert carries_kernel(twin, original)
        if isinstance(original, RuleResult):
            assert hash(fresh()) == hash(tuple(oracle))
            assert fresh().defined == oracle.defined
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(fresh())

    @pytest.mark.parametrize("name", OUTPUTS)
    def test_kernel_slot_is_not_a_field(self, name):
        obj = make(name)
        assert "_kernel" not in type(obj).__match_args__
        with pytest.raises(AttributeError, match=f"^'{name}' object has no attribute 'x'$"):
            obj.x
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj._kernel = None
