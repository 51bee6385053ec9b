"""Output checks for every benchmark command.

Each check compares a command's stdout against an answer reached another
way than the timed code path: the golden fixture reports, the symbolic
pipeline as an oracle for numeric scores (and the numeric pipeline for
symbolic ones), exact recomputation of collision pairs, or totals the input
generator already knows.  Checks run outside every timed region.

The oracles import ``ravkit`` from the tree under test, so callers must have
put its ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import Workload, scaled_counts

REPORT_TOLERANCE = 1e-6  # reports round floats to six decimals
FINDING_SCHEMA = "ravkit-finding/1"


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _scope(obj: dict, counts: dict | None = None):
    from ravkit.metrics import ControlCounts, LimitationCounts, PorosityCounts, Scope

    counts = counts or obj
    return Scope(
        id=obj["id"],
        porosity=PorosityCounts(**counts["porosity"]),
        controls=ControlCounts.from_mapping(counts["controls"]),
        limitations=LimitationCounts(**counts["limitations"]),
    )


def symbolic_value(obj: dict) -> float:
    """Actual Security of a unit-free scope object by the symbolic pipeline."""
    from ravkit.symbolic import symbolic_rav

    return symbolic_rav(_scope(obj)).evaluate({})


def _sum_scopes(objs: list[dict]) -> dict:
    out = {"id": "aggregate"}
    for group in ("porosity", "controls", "limitations"):
        out[group] = {k: sum(o[group][k] for o in objs) for k in objs[0][group]}
    return out


def trust_combined(row: dict, mode: str) -> Fraction:
    """The combined trust score of one generated record, from its fields."""
    consistency = []
    if row["months_eligible"] > 0:
        consistency.append(Fraction(row["months_unemployed"], row["months_eligible"]))
    adult_years = row["age_years"] - row["legal_adult_age"]
    if adult_years > 0:
        consistency.append(Fraction(row["criminal_offenses_known"], adult_years))
    if row["past_employer_count"] > 0:
        flagged = row["references_neutral"] + row["references_negative"]
        consistency.append(Fraction(flagged, row["past_employer_count"]))
    values = []
    if consistency:
        values.append(sum(consistency, Fraction(0)) / len(consistency))
    if row["community_population"] > 0:
        values.append(Fraction(row["employees_in_community"], row["community_population"]))
    values.append(Fraction(row["hours_alone_per_day"]) / Fraction(row["working_hours_per_day"]))
    return max(values) if mode == "max" else sum(values, Fraction(0)) / len(values)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _close(reported: float, expected: float, what: str) -> None:
    _require(abs(reported - expected) <= REPORT_TOLERANCE,
             f"{what}: reported {reported!r}, oracle {expected!r}")


class Checker:
    """Checks the outputs of one workload; oracle answers are computed once."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.facts = workload.facts
        self._oracle: dict = {}

    def oracle(self, key: str, compute):
        if key not in self._oracle:
            self._oracle[key] = compute()
        return self._oracle[key]

    def prepare(self) -> None:
        """Compute every oracle answer up front, outside the timed region."""
        for cmd in self.workload.commands:
            sub = cmd.subcommand
            if sub == "aggregate":
                self._aggregate_oracle()
            elif sub == "rav" and "scopes" in self.facts:
                self._sample_oracle()
            elif sub == "symbolic":
                self._units_oracle()

    def check(self, label: str, out: bytes) -> None:
        cmd = next(c for c in self.workload.commands if c.label == label)
        getattr(self, "_check_" + cmd.subcommand.replace("-", "_"))(cmd, out)

    # -- oracles --------------------------------------------------------------

    def _aggregate_oracle(self) -> float:
        return self.oracle("aggregate", lambda: symbolic_value(_sum_scopes(self.facts["aggregate"])))

    def _sample_oracle(self) -> dict[int, float]:
        scopes = self.facts["scopes"]
        return self.oracle("sample", lambda: {i: symbolic_value(scopes[i])
                                              for i in self.facts["sample"]})

    def _units_oracle(self) -> list[float]:
        from ravkit.metrics import actual_security

        point = self.facts["point"]
        return self.oracle("units", lambda: [
            actual_security(_scope(obj, scaled_counts(obj, point))).actsec
            for obj in self.facts["units"]])

    # -- per subcommand -------------------------------------------------------

    def _check_rav(self, cmd, out: bytes) -> None:
        fmt = "json" if "json" in cmd.argv else "text"
        if "scopes" not in self.facts:
            golden = "toy_report." + ("json" if fmt == "json" else "txt")
            _require(out == self.facts[golden], f"{cmd.label}: output differs from {golden}")
            return
        scopes = self.facts["scopes"]
        if fmt == "json":
            docs = [json.loads(line) for line in out.splitlines()]
            ids = [d["scope"]["id"] for d in docs]
            actsec = [d["breakdown"]["actsec"] for d in docs]
            _require(all(d["schema"] == "ravkit-report/1" for d in docs), "rav-json: schema")
        else:
            lines = out.decode().splitlines()
            ids = [ln[len("rav report: "):] for ln in lines if ln.startswith("rav report: ")]
            actsec = [float(ln.split()[1]) for ln in lines if ln.startswith("  actsec ")]
        _require(ids == [s["id"] for s in scopes], f"{cmd.label}: scope ids or order differ")
        _require(len(actsec) == len(scopes), f"{cmd.label}: {len(actsec)} scores")
        for i, expected in self._sample_oracle().items():
            _close(actsec[i], expected, f"{cmd.label} scope {scopes[i]['id']}")

    def _check_aggregate(self, cmd, out: bytes) -> None:
        expected_opsec = sum(sum(o["porosity"].values()) for o in self.facts["aggregate"])
        lines = {ln.split()[0]: ln.split()[1] for ln in out.decode().splitlines()
                 if ln.startswith("  ") and len(ln.split()) >= 2}
        _require(lines.get("opsec_sum") == f"{expected_opsec}/1", "aggregate: opsec_sum")
        _close(float(lines["actsec"]), self._aggregate_oracle(), "aggregate actsec")

    def _check_trust(self, cmd, out: bytes) -> None:
        mode = cmd.argv[cmd.argv.index("--mode") + 1] if "--mode" in cmd.argv else "average"
        rows = self.facts["applicants"]
        if "json" in cmd.argv:
            doc = json.loads(out)
            _require(doc["schema"] == "ravkit-trust/1", "trust: schema")
            got = [(a["applicant_id"], a["combined"]) for a in doc["applicants"]]
        else:
            lines = out.decode().splitlines()
            ids = [ln[len("applicant: "):] for ln in lines if ln.startswith("applicant: ")]
            combined = [ln.split()[1] for ln in lines if ln.startswith(f"  combined({mode})")]
            got = list(zip(ids, combined))
        want = [(r["applicant_id"], _frac(trust_combined(r, mode))) for r in rows]
        _require(len(got) == len(want), f"{cmd.label}: {len(got)} of {len(want)} records")
        bad = [w for g, w in zip(got, want) if g != w]
        _require(not bad, f"{cmd.label}: {len(bad)} combined scores differ, first {bad[:1]}")

    def _check_import_nmap(self, cmd, out: bytes) -> None:
        up, open_ports = self.facts["scan"]
        expected = json.loads(json.dumps(self.facts["merge_base"]))
        expected[0]["porosity"]["visibility"] += up
        expected[0]["porosity"]["access"] += open_ports
        doc = json.loads(out)
        _require(doc == {"schema": "ravkit-scope/1", "scopes": expected},
                 "import-nmap: merged document differs from base plus scan totals")

    def _check_symbolic(self, cmd, out: bytes) -> None:
        units = self.facts["units"]
        blocks = out.decode().split("\n\n")
        _require(len(blocks) == len(units), f"symbolic: {len(blocks)} of {len(units)} scopes")
        for block, obj, expected in zip(blocks, units, self._units_oracle()):
            lines = block.splitlines()
            _require(lines[0] == f"scope: {obj['id']}", f"symbolic: scope order at {obj['id']}")
            _close(float(lines[2].rsplit(": ", 1)[1]), expected, f"symbolic {obj['id']}")

    def _check_demo(self, cmd, out: bytes) -> None:
        doc = json.loads(out)
        _require(doc["schema"] == FINDING_SCHEMA, "demo: schema is not ravkit-finding/1")
        findings = doc["findings"]
        _require(len(findings) > 0, "demo: no findings")
        for f in findings:
            _require(f["verdict"] in ("holds", "violated"), f"demo: verdict {f['verdict']!r}")
            if f["kind"] == "score-collision":
                verify_collision(f)
        if "--epsilon" in cmd.argv and float(cmd.argv[cmd.argv.index("--epsilon") + 1]) == 0:
            _require(all(f["scores"]["exact"] for f in findings),
                     "demo: inexact pair reported with epsilon 0")


def verify_collision(finding: dict) -> None:
    """Recompute one collision pair with the symbolic pipeline.

    An exact pair must have identical (opsec, controls, limitations) log
    arguments; any other pair must score within the search's epsilon.  The
    symbolic and numeric pipelines round differently in the last float bits,
    so the epsilon comparison allows 1e-12 on top.
    """
    from ravkit.symbolic import symbolic_breakdown

    inputs, scores = finding["inputs"], finding["scores"]
    a = symbolic_breakdown(_scope(inputs["scope_a"]))
    b = symbolic_breakdown(_scope(inputs["scope_b"]))
    same_args = (a.opsec_argument == b.opsec_argument
                 and a.controls_argument == b.controls_argument
                 and a.seclim_argument == b.seclim_argument)
    va, vb = a.score.evaluate({}), b.score.evaluate({})
    _close(scores["actsec_a"], va, "collision actsec_a")
    _close(scores["actsec_b"], vb, "collision actsec_b")
    _require(scores["exact"] == same_args, "collision: 'exact' flag disagrees with recomputation")
    if not same_args:
        epsilon = float(inputs["epsilon"])
        _require(abs(va - vb) <= epsilon + 1e-12,
                 f"collision: scores differ by {abs(va - vb)!r} > epsilon {epsilon!r}")
    differs = (inputs["scope_a"]["porosity"] != inputs["scope_b"]["porosity"]
               or inputs["scope_a"]["limitations"] != inputs["scope_b"]["limitations"])
    _require(differs, "collision: pair differs only in controls")

