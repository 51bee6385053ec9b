"""The benchmark's own tests: python3 -m pytest perfbench -q

They cover seeded input generation, span self times, the output checks
(which must reject wrong output), and one short smoke run per workload.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import CheckFailed, Checker, verify_collision  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    a, b, c = (workloads.make(name, s, ROOT) for s in (7, 7, 8))
    assert a.files == b.files and [x.argv for x in a.commands] == [x.argv for x in b.commands]
    assert (a.files, [x.argv for x in a.commands]) != (c.files, [x.argv for x in c.commands])


def test_generated_inputs_keep_documented_shape():
    batch = workloads.make("score-batch", 3, ROOT)
    scopes = batch.facts["scopes"]
    assert len(scopes) == workloads.BATCH_SCOPES
    empty = [s for s in scopes if sum(s["porosity"].values()) == 0]
    assert empty, "zero-porosity scopes must be present"
    assert all(sum(s["limitations"].values()) == 0 for s in empty)
    assert max(max(s["porosity"].values()) for s in scopes) > 10**5
    rows = batch.facts["applicants"]
    assert all(r["references_positive"] + r["references_neutral"] + r["references_negative"]
               <= r["past_employer_count"] for r in rows)
    units = workloads.make("symbolic-units", 3, ROOT).facts["units"]
    assert all(5 <= len(u["units"]) <= 8 for u in units)


def _random_spans(rng: random.Random) -> list[Span]:
    tracer = Tracer("t")
    spans = []

    def grow(parent: Span | None, lo: int, hi: int, depth: int) -> None:
        for _ in range(rng.randint(0, 3) if depth else 1):
            start = rng.randint(lo, hi)
            end = rng.randint(start, hi)  # siblings may overlap
            span = Span(len(spans), parent.span_id if parent else None, tracer.trace_id,
                        f"s{len(spans)}", start, end)
            spans.append(span)
            if depth < 3:
                grow(span, start - 5, end + 5, depth + 1)  # children may overhang

    grow(None, 0, 1000, 0)
    return spans


def test_self_time_between_zero_and_duration():
    rng = random.Random(0)
    for _ in range(300):
        spans = _random_spans(rng)
        own = self_times(spans)
        assert all(0 <= own[s.span_id] <= s.duration_ns for s in spans)


def test_self_time_subtracts_children():
    parent = Span(0, None, "t", "p", 0, 100)
    kids = [Span(1, 0, "t", "a", 10, 30), Span(2, 0, "t", "b", 20, 50), Span(3, 0, "t", "c", 90, 120)]
    assert self_times([parent, *kids])[0] == 100 - 40 - 10


def test_tracer_nests_and_counts_failures():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with pytest.raises(ValueError):
            with tracer.span("inner"):
                raise ValueError
    outer, inner = tracer.spans
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert inner.counts == {"failures": 1} and outer.counts == {}


def _dispatch_outputs(wl, tmp_path):
    from ravkit.cli import dispatch

    wl.write(tmp_path)
    outputs = {}
    for cmd in wl.resolve(tmp_path):
        code, out, err = dispatch(cmd.argv)
        assert code == 0, err
        outputs[cmd.label] = out
    return outputs


def test_checks_accept_real_and_reject_altered_output(tmp_path):
    wl = workloads.make("cli-cold", 5, ROOT)
    checker = Checker(wl)
    outputs = _dispatch_outputs(wl, tmp_path)
    for label, out in outputs.items():
        checker.check(label, out)
    altered = {
        "rav-text": outputs["rav-text"].replace(b"-12.743031", b"-12.743032"),
        "trust": outputs["trust"].replace(b"combined(average)", b"combined(max)"),
        "symbolic-eval": outputs["symbolic-eval"].rsplit(b": ", 1)[0] + b": 1.000000\n",
        "import-nmap-merge": outputs["import-nmap-merge"].replace(b'"access": ', b'"access": 1', 1),
        "aggregate": outputs["aggregate"].replace(b"actsec       ", b"actsec       1"),
        "demo-formula": outputs["demo-formula"].replace(b"ravkit-finding/1", b"ravkit-finding/9"),
    }
    for label, out in altered.items():
        assert out != outputs[label], label
        with pytest.raises((CheckFailed, ValueError, KeyError)):
            checker.check(label, out)


def test_collision_pairs_are_reverified(tmp_path):
    wl = workloads.make("cli-cold", 5, ROOT)
    doc = json.loads(_dispatch_outputs(wl, tmp_path)["demo-collision-b1"])
    pairs = [f for f in doc["findings"] if f["kind"] == "score-collision"]
    assert pairs
    for finding in pairs:
        verify_collision(finding)
    forged = json.loads(json.dumps(pairs[0]))
    forged["scores"]["exact"] = not forged["scores"]["exact"]
    with pytest.raises(CheckFailed):
        verify_collision(forged)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli-cold", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke(name):
    proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced():
    proc = _run(ROOT, "--workload", "cli-cold", "--seed", "1", "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    record = json.loads((ROOT / ".perfbench_out" / "cli-cold-seed1-trace1.json").read_text())
    spans = record["traced_passes"][0]["spans"]
    assert {"parent_id", "trace_id", "self_ns", "counts"} <= set(spans[0])
    assert all(0 <= s["self_ns"] <= s["end_ns"] - s["start_ns"] for s in spans)
