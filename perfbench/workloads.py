"""Seeded inputs and command lists for the four benchmark workloads.

Everything here is stdlib only and deterministic: the same workload name and
seed give byte-identical input files.  Each generator also returns the facts
it used (scope counts, scan totals, applicant fields, the evaluation point),
so the output checks can rebuild the expected answers without going through
the code path that produced the timed output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli-cold", "score-batch", "symbolic-units", "critique")

POROSITY_KINDS = ("visibility", "access", "trust")
CONTROL_KINDS = (
    "authentication", "indemnification", "resilience", "subjugation", "continuity",
    "non-repudiation", "integrity", "privacy", "confidentiality", "alarm",
)
LIMITATION_KINDS = ("vulnerabilities", "weaknesses", "concerns", "exposures", "anomalies")
CHANNELS = ("human", "physical", "wireless", "telecom", "data-network")
CSV_HEADER = (
    "applicant_id", "months_unemployed", "months_eligible", "criminal_offenses_known",
    "age_years", "legal_adult_age", "references_positive", "references_neutral",
    "references_negative", "past_employer_count", "hours_alone_per_day",
    "working_hours_per_day", "employees_in_community", "community_population",
)
# Variables used by symbolic-units and the value each takes in ``--eval``.
# Integers >= 2, so the point is not all-ones and scaled counts stay integral.
UNIT_VARS = ("a", "b", "c", "d", "e", "f", "g", "h")

# Sizes.  score-batch is a batch of thousands; one pass takes about 5.5 s, so
# a run fits at least three passes even when the host runs 1.5x slow, and a
# latency percentile never falls in the gap between two commands' clusters.
# The other workloads are fixture-sized.
BATCH_SCOPES = 3000
BATCH_RECORDS = 5000
BATCH_HOSTS = 2000
SYMBOLIC_SCOPES = 100
ORACLE_SAMPLE = 40


@dataclass
class Command:
    """One cold ``ravkit`` invocation: its argv after ``-m ravkit.cli``."""

    label: str
    argv: list[str]
    scopes: int = 0   # scopes scored, counted for rav / symbolic only
    records: int = 0  # applicant records, counted for trust only

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, bytes]
    commands: list[Command]
    facts: dict = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (directory / name).write_bytes(data)

    def resolve(self, directory: Path) -> list[Command]:
        """Commands with input file names made absolute under ``directory``."""
        out = []
        for cmd in self.commands:
            argv = [str(directory / a) if a in self.files else a for a in cmd.argv]
            out.append(Command(cmd.label, argv, cmd.scopes, cmd.records))
        return out


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _count(rng: random.Random) -> int:
    """Counts from three magnitude bands, so small and big-integer fractions mix."""
    band = rng.random()
    if band < 0.45:
        return rng.randint(0, 3)
    if band < 0.85:
        return rng.randint(0, 50)
    return rng.randint(0, 10**6)


def scope_obj(scope_id: str, rng: random.Random, counts=_count, empty_ok: bool = True) -> dict:
    """A valid scope object; a zero-porosity scope always has zero limitations."""
    porosity = {k: counts(rng) for k in POROSITY_KINDS}
    if empty_ok and rng.random() < 0.02:
        porosity = dict.fromkeys(POROSITY_KINDS, 0)
    elif sum(porosity.values()) == 0:
        porosity["visibility"] = 1
    controls = {k: counts(rng) for k in CONTROL_KINDS}
    limitations = {k: counts(rng) for k in LIMITATION_KINDS}
    if sum(porosity.values()) == 0:
        limitations = dict.fromkeys(LIMITATION_KINDS, 0)
    return {
        "id": scope_id,
        "channel": rng.choice(CHANNELS),
        "vector": rng.choice(("internet", "intranet", "partner")),
        "index": rng.choice(("ipv4", "ipv6", "hostname")),
        "porosity": porosity,
        "controls": controls,
        "limitations": limitations,
    }


def scope_document(scopes: list[dict]) -> bytes:
    return (json.dumps({"schema": "ravkit-scope/1", "scopes": scopes}, indent=1) + "\n").encode()


def applicant_rows(rng: random.Random, n: int) -> list[dict]:
    """Valid applicant records; working hours are never zero, so every record
    has at least one defined rule and none is a domain error."""
    rows = []
    for i in range(n):
        eligible = rng.choice((0, rng.randint(1, 240)))
        pe = rng.randint(0, 8)
        refs = rng.randint(0, pe)
        neg = rng.randint(0, refs)
        neu = rng.randint(0, refs - neg)
        working = Fraction(rng.choice(("6", "15/2", "8", "10", "12")))
        alone = working * Fraction(rng.randint(0, 8), 8)
        pop = rng.choice((0, rng.randint(1, 10**6)))
        rows.append({
            "applicant_id": f"app-{i:05d}",
            "months_unemployed": rng.randint(0, eligible),
            "months_eligible": eligible,
            "criminal_offenses_known": rng.choice((0, 0, 0, 1, 2)),
            "age_years": rng.randint(16, 70),
            "legal_adult_age": rng.choice((18, 18, 21)),
            "references_positive": refs - neg - neu,
            "references_neutral": neu,
            "references_negative": neg,
            "past_employer_count": pe,
            "hours_alone_per_day": alone,
            "working_hours_per_day": working,
            "employees_in_community": rng.randint(0, min(pop, 5000)),
            "community_population": pop,
        })
    return rows


def applicants_csv(rows: list[dict]) -> bytes:
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in CSV_HEADER))
    return ("\n".join(lines) + "\n").encode()


def scan_xml(rng: random.Random, hosts: int) -> tuple[bytes, int, int]:
    """nmap-style XML; returns the document, the up hosts and the open ports."""
    up_total = open_total = 0
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<nmaprun scanner="nmap" args="nmap -sS" start="1280001000" version="7.94" '
             'xmloutputversion="1.05">']
    for h in range(hosts):
        up = rng.random() < 0.8
        up_total += up
        parts.append(f'  <host starttime="{1280001001 + h}" endtime="{1280001002 + h}">')
        parts.append(f'    <status state="{"up" if up else "down"}" reason="syn-ack"/>')
        parts.append(f'    <address addr="10.{h // 65536}.{h // 256 % 256}.{h % 256}" '
                     'addrtype="ipv4"/>')
        parts.append("    <ports>")
        for p in rng.sample(range(1, 1024), rng.randint(0, 6)):
            state = rng.choice(("open", "open", "closed", "filtered"))
            open_total += state == "open"
            parts.append(f'      <port protocol="tcp" portid="{p}">')
            parts.append(f'        <state state="{state}" reason="syn-ack"/>')
            parts.append(f'        <service name="svc{p}"/>')
            parts.append("      </port>")
        parts.append("    </ports>")
        parts.append("  </host>")
    parts.append(f'  <runstats><hosts up="{up_total}" total="{hosts}"/></runstats>')
    parts.append("</nmaprun>")
    return ("\n".join(parts) + "\n").encode(), up_total, open_total


def _units_scope(scope_id: str, rng: random.Random, shape: random.Random,
                 point: dict[str, int], n_units: int, n_porosity_units: int) -> dict:
    """A scope with ``n_units`` unit variables, ``n_porosity_units`` of them
    on (nonzero) porosity counts.  ``shape`` picks which counts carry which
    variable, ``rng`` draws the counts.

    The symbolic pipeline picks each ``max(opsec - LC, 0)`` branch at the
    all-ones point, so a scope is only drawn if every branch is the same at
    ``point``; there the symbolic value must equal the numeric pipeline on
    the scaled counts, which is what the output check compares.
    """
    chosen = (shape.sample(POROSITY_KINDS, n_porosity_units)
              + shape.sample(CONTROL_KINDS + LIMITATION_KINDS, n_units - n_porosity_units))
    units = dict(zip(chosen, shape.sample(UNIT_VARS, len(chosen))))
    small = lambda r: r.randint(0, 50)  # noqa: E731
    while True:
        obj = scope_obj(scope_id, rng, counts=small, empty_ok=False)
        for kind in chosen[:n_porosity_units]:
            obj["porosity"][kind] = max(obj["porosity"][kind], 1)
        obj["units"] = units
        scaled = scaled_counts(obj, point)
        opsec1 = sum(obj["porosity"].values())
        opsec2 = sum(scaled["porosity"].values())
        if all((opsec1 >= obj["controls"][k]) == (opsec2 >= scaled["controls"][k])
               for k in CONTROL_KINDS):
            return obj


def _point(rng: random.Random) -> dict[str, int]:
    """The evaluation point: each variable drawn on its own from 2-4."""
    return {v: rng.randint(2, 4) for v in UNIT_VARS}


def scaled_counts(obj: dict, point: dict[str, int]) -> dict:
    """Counts of a unit scope with every unit variable set to its value."""
    units = obj.get("units", {})
    out = {}
    for group in ("porosity", "controls", "limitations"):
        out[group] = {k: v * point.get(units.get(k, ""), 1) for k, v in obj[group].items()}
    return out


def _fixture(root: Path, name: str) -> bytes:
    return (root / "tests" / "fixtures" / name).read_bytes()


def make(name: str, seed: int, root: Path) -> Workload:
    """Generate the inputs and command list of workload ``name``."""
    if name == "cli-cold":
        return _cli_cold(seed, root)
    if name == "score-batch":
        return _score_batch(seed)
    if name == "symbolic-units":
        return _symbolic_units(seed)
    if name == "critique":
        return _critique(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _cli_cold(seed: int, root: Path) -> Workload:
    w = "cli-cold"
    rng = _rng(w, seed, "scopes")
    part_a = [scope_obj(f"a{i}", rng) for i in range(2)]
    part_b = [scope_obj(f"b{i}", rng) for i in range(2)]
    base = [scope_obj("merge-base", rng, empty_ok=False)]
    point = _point(_rng(w, seed, "point"))
    units = [_units_scope("units-0", _rng(w, seed, "units"), _rng(w, seed, "shape"),
                          point, 5, 2)]
    rows = applicant_rows(_rng(w, seed, "csv"), 4)
    xml, up, open_ports = scan_xml(_rng(w, seed, "scan"), 1)
    demo_seed = str(seed)
    files = {
        "toy.json": _fixture(root, "toy.json"),
        "part_a.json": scope_document(part_a),
        "part_b.json": scope_document(part_b),
        "base.json": scope_document(base),
        "units.json": scope_document(units),
        "applicants.csv": applicants_csv(rows),
        "scan.xml": xml,
    }
    eval_spec = ",".join(f"{k}={v}" for k, v in point.items())
    commands = [
        Command("rav-text", ["rav", "toy.json"], scopes=1),
        Command("rav-json", ["rav", "toy.json", "--format", "json"], scopes=1),
        Command("trust", ["trust", "applicants.csv"], records=len(rows)),
        Command("symbolic-eval", ["symbolic", "units.json", "--eval", eval_spec], scopes=1),
        Command("import-nmap-merge", ["import-nmap", "scan.xml", "--merge", "base.json"]),
        Command("aggregate", ["aggregate", "part_a.json", "part_b.json"]),
        Command("demo-formula", ["demo", "--kind", "formula", "--seed", demo_seed]),
        Command("demo-permutation", ["demo", "--kind", "permutation", "--seed", demo_seed]),
        Command("demo-trust", ["demo", "--kind", "trust", "--seed", demo_seed]),
        Command("demo-collision-b1",
                ["demo", "--kind", "collision", "--bounds", "1", "--seed", demo_seed]),
    ]
    facts = {
        "aggregate": part_a + part_b, "merge_base": base, "scan": (up, open_ports),
        "units": units, "point": point, "applicants": rows,
        "toy_report.txt": _fixture(root, "toy_report.txt"),
        "toy_report.json": _fixture(root, "toy_report.json"),
    }
    return Workload(w, seed, files, commands, facts)


def _score_batch(seed: int) -> Workload:
    w = "score-batch"
    rng = _rng(w, seed, "scopes")
    scopes = [scope_obj(f"s{i:05d}", rng) for i in range(BATCH_SCOPES)]
    base = [scope_obj(f"base-{i}", rng, empty_ok=False) for i in range(2)]
    rows = applicant_rows(_rng(w, seed, "csv"), BATCH_RECORDS)
    xml, up, open_ports = scan_xml(_rng(w, seed, "scan"), BATCH_HOSTS)
    sample = sorted(_rng(w, seed, "sample").sample(range(BATCH_SCOPES), ORACLE_SAMPLE))
    files = {
        "scopes.json": scope_document(scopes),
        "base.json": scope_document(base),
        "applicants.csv": applicants_csv(rows),
        "scan.xml": xml,
    }
    n, m = len(scopes), len(rows)
    commands = [
        Command("rav-json", ["rav", "scopes.json", "--format", "json"], scopes=n),
        Command("rav-text", ["rav", "scopes.json"], scopes=n),
        Command("aggregate", ["aggregate", "scopes.json"]),
        Command("trust-average", ["trust", "applicants.csv", "--mode", "average"], records=m),
        Command("trust-max-json",
                ["trust", "applicants.csv", "--mode", "max", "--format", "json"], records=m),
        Command("import-nmap-merge", ["import-nmap", "scan.xml", "--merge", "base.json"]),
    ]
    facts = {
        "scopes": scopes, "sample": sample, "aggregate": scopes, "merge_base": base,
        "scan": (up, open_ports), "applicants": rows,
    }
    return Workload(w, seed, files, commands, facts)


def _symbolic_units(seed: int) -> Workload:
    w = "symbolic-units"
    point = _point(_rng(w, seed, "point"))
    rng = _rng(w, seed, "units")
    # Symbolic cost depends on which counts carry a unit (it grows steeply
    # with the units on porosity), so every seed gets the same shapes: 0-3
    # porosity units crossed with 5-8 units in all, on the same counts.  The
    # seed draws the counts and the evaluation point.
    shape = random.Random(f"{w}/shape")
    units = [_units_scope(f"u{i:03d}", rng, shape, point, 5 + i // 4 % 4, i % 4)
             for i in range(SYMBOLIC_SCOPES)]
    eval_spec = ",".join(f"{k}={v}" for k, v in point.items())
    commands = [
        Command("symbolic-eval", ["symbolic", "units.json", "--eval", eval_spec],
                scopes=len(units)),
    ]
    files = {"units.json": scope_document(units)}
    return Workload(w, seed, files, commands, {"units": units, "point": point})


def _critique(seed: int) -> Workload:
    # Bounds 4 is left out: about 21 s and 4.6 GB per run on an 8 GB machine.
    demo_seed = str(seed)
    commands = [
        Command("demo-all-b3", ["demo", "--bounds", "3", "--seed", demo_seed]),
        Command("demo-collision-b2-exact",
                ["demo", "--kind", "collision", "--bounds", "2", "--epsilon", "0",
                 "--seed", demo_seed]),
    ]
    return Workload("critique", seed, {}, commands, {})
