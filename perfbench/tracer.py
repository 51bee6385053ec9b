"""One traced pass of a workload, run in a fresh interpreter by ``run.py``.

Usage: python perfbench/tracer.py WORKLOAD SEED INPUT_DIR FIXTURE_DIR PASS_INDEX OUT_JSON

The pass times ``import ravkit.cli`` first, then runs the workload's
command lines in-process through ``ravkit.cli.dispatch``, each three times in a
row: plain, traced with spans around every call from the CLI into a layer
(the module functions are wrapped from here, the program is not changed), and
plain again.  An untimed warm-up replay of the fixture-sized commands comes
first.  The traced total over the mean of the plain totals is the tracing
overhead.  The ``cli-cold`` commands (fixture-sized) are replayed
first in every workload, so every layer is called at least once and
``cli.dispatch.<command>.ms`` always means the same small inputs.
"""

from __future__ import annotations

import sys
import time

_t0 = time.perf_counter_ns()
_before = len(sys.modules)
import ravkit.cli as cli  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _t0
MODULES_LOADED = len(sys.modules) - _before
NUMPY_LOADED = int("numpy" in sys.modules)

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import ravkit  # noqa: E402
from ravkit.symbolic import SymbolicScore  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed, Checker  # noqa: E402
from spans import Tracer, to_records  # noqa: E402


def _nbytes(value) -> int:
    return len(value) if isinstance(value, (bytes, str)) else 0


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# span name -> counters taken from (args, result).  Only calls the CLI makes
# into a layer are wrapped, so calls inside a layer stay in its self time.
COUNTERS = {
    "ingest.parse_scope_file": lambda a, r: {"scopes": len(r), "bytes": _nbytes(a[0])},
    "ingest.parse_scope_document": lambda a, r: {"scopes": len(r.entries), "bytes": _nbytes(a[0])},
    "ingest.import_scan_report": lambda a, r: {"hosts": r.hosts_total, "bytes": _nbytes(a[0])},
    "ingest.merge_scan_into_scope": lambda a, r: {"scopes": 1},
    "ingest.render_scope_document": lambda a, r: {"bytes": len(r)},
    "ingest.parse_applicants_csv": lambda a, r: {"records": len(r), "bytes": _nbytes(a[0])},
    "metrics.actual_security": lambda a, r: {"scopes": 1},
    "metrics.aggregate_scopes": lambda a, r: {"scopes": len(a[0])},
    "trust.score_applicant": lambda a, r: {"records": 1},
    "symbolic.symbolic_rav": lambda a, r: {"scopes": 1},
    "symbolic.evaluate": lambda a, r: {"scopes": 1},
    "symbolic.render": lambda a, r: {"scopes": 1, "bytes": len(r)},
    "report.render_report": lambda a, r: {"scopes": 1, "bytes": len(r)},
    "report.render_trust_report": lambda a, r: {"records": len(a[0]), "bytes": len(r)},
    "report.render_findings": lambda a, r: {"findings": len(a[0]), "bytes": len(r)},
    "critique.collision_search": lambda a, r: {"findings": len(r), "peak_rss_kb": _rss_kb(),
                                               "bounds": a[0]},
    "critique.permutation_demo": lambda a, r: {"findings": 1},
    "critique.cross_class_counterexample": lambda a, r: {"findings": 1},
    "critique.formula_discrepancy_demo": lambda a, r: {"findings": 1},
    "critique.trust_aggregation_demo": lambda a, r: {"findings": 1},
    "critique.trust_equivalence_demo": lambda a, r: {"findings": 1},
}


def _wrap(tracer: Tracer, name: str, fn):
    count = COUNTERS[name]

    def traced(*args, **kwargs):
        span_name = name
        if name == "report.render_report":
            span_name += "." + (args[2] if len(args) > 2 else kwargs.get("format", "text"))
        with tracer.span(span_name) as span:
            result = fn(*args, **kwargs)
        span.counts.update(count(args, result))  # after the span ends, so not timed
        return result

    return traced


class _Proxy:
    """Stands in for a module inside ``ravkit.cli``: wrapped names first."""

    def __init__(self, module, names: dict):
        self._module = module
        self.__dict__.update(names)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer):
    """Wrap the layer calls ``ravkit.cli`` makes; returns an undo function."""
    saved_globals = {n: getattr(cli, n) for n in
                     ("ingest", "report", "critique", "actual_security", "aggregate_scopes",
                      "symbolic_rav", "score_applicant")}
    saved_methods = {n: SymbolicScore.__dict__[n] for n in ("evaluate", "render")}

    def proxy(module_name: str):
        module = saved_globals[module_name]
        names = {n.split(".")[1]: _wrap(tracer, n, getattr(module, n.split(".")[1]))
                 for n in COUNTERS if n.startswith(module_name + ".")}
        return _Proxy(module, names)

    cli.ingest, cli.report, cli.critique = proxy("ingest"), proxy("report"), proxy("critique")
    cli.actual_security = _wrap(tracer, "metrics.actual_security", saved_globals["actual_security"])
    cli.aggregate_scopes = _wrap(tracer, "metrics.aggregate_scopes", saved_globals["aggregate_scopes"])
    cli.symbolic_rav = _wrap(tracer, "symbolic.symbolic_rav", saved_globals["symbolic_rav"])
    cli.score_applicant = _wrap(tracer, "trust.score_applicant", saved_globals["score_applicant"])
    for n, method in saved_methods.items():
        setattr(SymbolicScore, n, _wrap(tracer, "symbolic." + n, method))

    def undo():
        for n, value in saved_globals.items():
            setattr(cli, n, value)
        for n, method in saved_methods.items():
            setattr(SymbolicScore, n, method)

    return undo


def run(cmd, tracer: Tracer | None):
    """Dispatch one command in-process; returns (code, stdout, ns).  With a
    tracer, the layer calls are wrapped for this command only."""
    if tracer is None:
        start = time.perf_counter_ns()
        code, stdout, _ = cli.dispatch(cmd.argv)
        return code, stdout, time.perf_counter_ns() - start
    undo = install(tracer)
    try:
        start = time.perf_counter_ns()
        with tracer.span("cli.dispatch", command=cmd.subcommand) as span:
            code, stdout, _ = cli.dispatch(cmd.argv)
            span.counts["failures"] = int(code != 0)
        return code, stdout, time.perf_counter_ns() - start
    finally:
        undo()


def main(argv: list[str]) -> int:
    name, seed, inputs, fixture_inputs, pass_index, out_path = argv
    seed, pass_index = int(seed), int(pass_index)
    root = Path(ravkit.__file__).resolve().parents[2]
    own = workloads.make(name, seed, root)
    groups = [(own, Path(inputs))]
    if name != "cli-cold":
        groups.insert(0, (workloads.make("cli-cold", seed, root), Path(fixture_inputs)))
    commands = [(w, c) for w, d in groups for c in w.resolve(d)]

    # Warm-up: first calls pay one-off costs (lazy imports, regex compiles)
    # that would otherwise land on whichever run goes first.
    for w, cmd in commands:
        if w is groups[0][0]:
            run(cmd, None)
    tracer = Tracer(trace_id=f"{name}/{seed}/{pass_index}")
    # plain, traced, plain: the mean of the two plain runs cancels both a
    # drift in machine speed and the head start a repeated run gets.
    runs = [(run(cmd, None), run(cmd, tracer), run(cmd, None)) for _, cmd in commands]

    failures = []
    checkers = {id(w): Checker(w) for w, _ in groups}
    for (w, cmd), (plain, traced, again) in zip(commands, runs):
        for label, (code, stdout, _) in (("untraced", plain), ("traced", traced)):
            try:
                if code != 0:
                    raise CheckFailed(f"exit code {code}")
                checkers[id(w)].check(cmd.label, stdout)
            except Exception as exc:  # any error while checking is a failed check
                failures.append(f"{w.name}/{cmd.label} ({label}): {exc!r}")
        if traced[:2] != plain[:2]:
            failures.append(f"{w.name}/{cmd.label}: stdout differs with tracing on")
        if again[:2] != plain[:2]:
            failures.append(f"{w.name}/{cmd.label}: stdout differs between two plain runs")

    untraced = [(plain[2] + again[2]) / 2 for plain, _, again in runs]
    doc = {
        "ravkit_file": ravkit.__file__,
        "import_ns": IMPORT_NS,
        "modules_loaded": MODULES_LOADED,
        "numpy_loaded": NUMPY_LOADED,
        "untraced": [{"workload": w.name, "command": c.subcommand, "label": c.label, "ns": ns}
                     for (w, c), ns in zip(commands, untraced)],
        "traced_ns": sum(traced[2] for _, traced, _ in runs),
        "untraced_ns": sum(untraced),
        "attempted": 3 * len(commands),
        "failures": failures,
        "spans": to_records(tracer.spans),
    }
    Path(out_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
