"""ravkit benchmark: cold CLI processes end to end, or a traced in-process run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ravkit source tree.  ``NAME`` is one of
``cli-cold``, ``score-batch``, ``symbolic-units``, ``critique`` or ``all``.

``--trace 0`` spawns ``python -m ravkit.cli`` children one at a time, with
``PYTHONPATH`` set to this tree's ``src`` only, and repeats whole passes over
the workload's commands for as many as fit in S seconds.  Each child
is reaped with ``os.wait4``, which gives that child's own CPU time and peak
RSS (``RUSAGE_CHILDREN`` would keep the high-water mark of every child
reaped so far).  Timings are scaled to a reference host speed measured by a
calibration job between invocations (see ``CALIBRATION``).  ``--trace 1``
runs ``tracer.py`` passes instead and reports per-layer figures from its
spans.

Every output is checked after its pass, outside the timed region; see
``checks.py``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records (environment, load,
every pass and span) go to ``.perfbench_out/`` under the tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Set-up repeats: at least SETUP_MIN, then more until SETUP_SECONDS have
# passed (cheap set-ups are a single cold process, so one sample is noisy).
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 9, 1.5

# The speed of a shared host switches between states about 1.5x apart, within
# seconds and over minutes, and CPU time follows wall time, so a median over
# one run cannot hide it.  A fixed pure-Python job in a fresh interpreter,
# which does not import ravkit, is timed before the first set-up and after
# each one, and in the timed passes before the first invocation and then at
# the first invocation boundary after every CALIBRATE_EVERY_S of invocations.
# Each timing is reported at the reference speed: measured * REFERENCE_S /
# (mean of the two calibrations around it).  Raw timings are printed and kept
# in the run record as well.
CALIBRATION = """\
import json
from fractions import Fraction
total = Fraction(0)
rows = []
for i in range(1, 2501):
    x = Fraction(i * 7919 % 1000003, i % 97 + 1)
    total = (total + x * x) % 1000
    rows.append({"id": i, "v": f"{x.numerator}/{x.denominator}", "f": float(x)})
json.dumps(rows)
"""
REFERENCE_S = 0.1  # the calibration's typical time on a 2-vCPU Xeon VM
CALIBRATE_EVERY_S = 1.0

import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402


class SetupError(Exception):
    pass


# -- children -----------------------------------------------------------------


def child_env() -> dict:
    """The environment of every child: this tree's ``src`` and nothing else
    on the module path, a fixed hash seed, and one BLAS thread.

    ravkit does no BLAS work, but importing numpy starts a BLAS thread pool
    whose threads spin on the other core: that costs CPU time, and wall time
    too whenever the other core is busy, so cold latency would depend on
    the neighbours' load rather than on the program."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "RAVKIT_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(args: list[str], out: Path, err: Path, env: dict) -> dict:
    """Run ``python ARGS`` to completion; wall, CPU and peak RSS of that child."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def check_resolution(env: dict, scratch: Path) -> str:
    """Fail unless a child imports ravkit from this tree's ``src``."""
    out, err = scratch / "resolve.out", scratch / "resolve.err"
    probe = "import ravkit, sys; sys.stdout.write(ravkit.__file__)"
    result = spawn(["-c", probe], out, err, env)
    where = out.read_text()
    expected = ROOT / "src" / "ravkit"
    if result["code"] != 0 or Path(where).resolve().parent != expected.resolve():
        raise SetupError(f"child imports ravkit from {where or err.read_text()!r}, "
                         f"not from {expected}")
    return where


def calibrate(env: dict, scratch: Path) -> float:
    """Wall time of one calibration child, in seconds."""
    result = spawn(["-c", CALIBRATION], scratch / "calibration.out",
                   scratch / "calibration.err", env)
    if result["code"] != 0:
        raise SetupError("calibration failed: " + (scratch / "calibration.err").read_text())
    return result["wall_s"]


def speed_scales(calibrations: list[float]) -> list[float]:
    """Factor to the reference speed for each interval between two calibrations."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


# -- environment --------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def load_sample() -> dict:
    """Load average and cumulative steal / total CPU jiffies from ``/proc``."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:]
    jiffies = [int(x) for x in fields[:8]]
    return {
        "loadavg": [float(x) for x in _read("/proc/loadavg").split()[:3]],
        "steal": jiffies[7] if len(jiffies) > 7 else 0,
        "total": sum(jiffies),
    }


def steal_pct(before: dict, after: dict) -> float:
    total = after["total"] - before["total"]
    return 100.0 * (after["steal"] - before["steal"]) / total if total else 0.0


def environment() -> dict:
    cpu = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- set-up -------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: Path, env: dict):
    """Generate and write the inputs, then one untimed cold invocation that
    fills the bytecode cache; repeated (see ``SETUP_MIN``), median reported."""
    times, generated = [], []
    calibrations = [calibrate(env, workdir)]
    toy = ROOT / "tests" / "fixtures" / "toy.json"
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_SECONDS):
        start = time.perf_counter()
        wl = workloads.make(name, seed, ROOT)
        wl.write(workdir / "inputs")
        warm = spawn(["-m", "ravkit.cli", "rav", str(toy)], workdir / "warm.out",
                     workdir / "warm.err", env)
        times.append(time.perf_counter() - start)
        if warm["code"] != 0:
            raise SetupError(f"warm-up invocation failed: {(workdir / 'warm.err').read_text()}")
        generated.append(wl.files)
        calibrations.append(calibrate(env, workdir))
    if any(files != generated[0] for files in generated):
        raise SetupError("the same seed generated different inputs")
    return wl, times, speed_scales(calibrations)


def import_tree() -> None:
    """Import ravkit from this tree into this process, for the oracles."""
    sys.path.insert(0, str(ROOT / "src"))
    import ravkit

    if Path(ravkit.__file__).resolve().parent != (ROOT / "src" / "ravkit").resolve():
        raise SetupError(f"oracles would use ravkit from {ravkit.__file__}")


# -- timed runs ---------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fits(measured: float, passes: int, seconds: float) -> bool:
    """Start another pass only if one of average length still ends in time,
    so a run measures at most ``seconds`` (but always at least one pass)."""
    return passes == 0 or measured * (passes + 1) / passes <= seconds


def run_cold(wl, seconds: float, workdir: Path, env: dict) -> dict:
    from checks import CheckFailed, Checker

    checker = Checker(wl)
    commands = wl.resolve(workdir / "inputs")
    outdir = workdir / "out"
    outdir.mkdir(exist_ok=True)
    passes, failures, measured = [], [], 0.0
    try:
        checker.prepare()
    except Exception as exc:  # a broken oracle fails every check below as well
        failures.append(f"oracle: {exc!r}")
    calibrations, since = [calibrate(env, workdir)], 0.0
    while fits(measured, len(passes), seconds):
        results = []
        for cmd in commands:
            res = spawn(["-m", "ravkit.cli", *cmd.argv], outdir / f"{cmd.label}.out",
                        outdir / f"{cmd.label}.err", env)
            res.update(label=cmd.label, calibration=len(calibrations) - 1)
            results.append(res)
            since += res["wall_s"]
            if since >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate(env, workdir))
                since = 0.0
        measured += sum(r["wall_s"] for r in results)
        for cmd, res in zip(commands, results):
            try:
                if res["code"] != 0:
                    raise CheckFailed(f"exit code {res['code']}: "
                                      + (outdir / f"{cmd.label}.err").read_text()[-300:])
                checker.check(cmd.label, (outdir / f"{cmd.label}.out").read_bytes())
            except Exception as exc:  # any error while checking is a failed check
                failures.append(f"pass {len(passes)} {cmd.label}: {exc!r}")
        passes.append({"invocations": results})
    if since:
        calibrations.append(calibrate(env, workdir))
    scales = speed_scales(calibrations)
    for p in passes:
        for res in p["invocations"]:
            res["scale"] = scales[res["calibration"]]

    def timings(scaled: bool) -> dict:
        def per_pass(pick) -> float:
            return statistics.median(
                sum(pick(c, r) * (r["scale"] if scaled else 1.0)
                    for c, r in zip(commands, p["invocations"])) for p in passes)

        latencies = [r["wall_s"] * 1000 * (r["scale"] if scaled else 1.0)
                     for p in passes for r in p["invocations"]]
        scope_s = per_pass(lambda c, r: r["wall_s"] if c.scopes else 0.0)
        record_s = per_pass(lambda c, r: r["wall_s"] if c.records else 0.0)
        return {
            "wall_s": per_pass(lambda c, r: r["wall_s"]),
            "cpu_s": per_pass(lambda c, r: r["cpu_s"]),
            "invoke_p50_ms": statistics.median(latencies),
            "invoke_p90_ms": quantile(latencies, 90),
            "scopes_per_s": sum(c.scopes for c in commands) / scope_s if scope_s else None,
            "records_per_s": sum(c.records for c in commands) / record_s if record_s else None,
        }

    scaled, raw = timings(True), timings(False)
    invocations = [r for p in passes for r in p["invocations"]]
    metrics = {k: scaled[k] for k in ("wall_s", "cpu_s", "invoke_p50_ms", "invoke_p90_ms")}
    metrics["peak_rss_mb"] = max(r["rss_mb"] for r in invocations)
    return {
        "metrics": metrics,
        "extra": {
            "passes": len(passes),
            "invocations": len(invocations),
            "scopes_per_s": scaled["scopes_per_s"],
            "records_per_s": scaled["records_per_s"],
            "raw": raw,
            "calibrations_s": calibrations,
        },
        "attempted": len(invocations),
        "failures": failures,
        "passes": passes,
    }


# -- traced runs --------------------------------------------------------------

# Metrics read from the spans of one traced pass: (metric, span name,
# counter it is divided by or None for a per-pass total, scale to the unit).
SPAN_METRICS = [
    ("ingest.parse_scope_file.us_per_scope", "ingest.parse_scope_file", "scopes", 1e-3),
    ("metrics.actual_security.us_per_scope", "metrics.actual_security", "scopes", 1e-3),
    ("report.render_report.json.us_per_scope", "report.render_report.json", "scopes", 1e-3),
    ("report.render_report.text.us_per_scope", "report.render_report.text", "scopes", 1e-3),
    ("metrics.aggregate_scopes.ms", "metrics.aggregate_scopes", None, 1e-6),
    ("ingest.parse_applicants_csv.us_per_record", "ingest.parse_applicants_csv", "records", 1e-3),
    ("trust.score_applicant.us_per_record", "trust.score_applicant", "records", 1e-3),
    ("report.render_trust_report.us_per_record", "report.render_trust_report", "records", 1e-3),
    ("ingest.import_scan_report.us_per_host", "ingest.import_scan_report", "hosts", 1e-3),
    ("symbolic.symbolic_rav.ms_per_scope", "symbolic.symbolic_rav", "scopes", 1e-6),
    ("symbolic.evaluate.ms_per_scope", "symbolic.evaluate", "scopes", 1e-6),
    ("symbolic.render.ms_per_scope", "symbolic.render", "scopes", 1e-6),
    ("critique.collision_search.s", "critique.collision_search", None, 1e-9),
    ("critique.permutation_demo.ms", "critique.permutation_demo", None, 1e-6),
    ("critique.cross_class_counterexample.ms", "critique.cross_class_counterexample", None, 1e-6),
    ("critique.formula_discrepancy_demo.ms", "critique.formula_discrepancy_demo", None, 1e-6),
    ("critique.trust_aggregation_demo.ms", "critique.trust_aggregation_demo", None, 1e-6),
    ("critique.trust_equivalence_demo.ms", "critique.trust_equivalence_demo", None, 1e-6),
    ("report.render_findings.ms", "report.render_findings", None, 1e-6),
]
LAYERS = ("cli", "ingest", "metrics", "trust", "symbolic", "report", "critique")
SUBCOMMANDS = ("rav", "import-nmap", "aggregate", "trust", "symbolic", "demo")


def pass_metrics(doc: dict) -> dict:
    """Per-layer figures of one traced pass (see BENCHMARK.json ``per_layer``)."""
    spans = [Span(**{k: v for k, v in s.items() if k != "self_ns"}) for s in doc["spans"]]
    own = self_times(spans)
    m = {
        "cli.import_ms": doc["import_ns"] / 1e6,
        "cli.modules_loaded": doc["modules_loaded"],
        "cli.numpy_loaded": doc["numpy_loaded"],
    }
    for cmd in SUBCOMMANDS:
        ns = [u["ns"] for u in doc["untraced"] if u["workload"] == "cli-cold" and u["command"] == cmd]
        m[f"cli.dispatch.{cmd}.ms"] = statistics.mean(ns) / 1e6
    for metric, name, counter, scale in SPAN_METRICS:
        mine = [s for s in spans if s.name == name]
        if not mine:
            continue
        total = sum(own[s.span_id] for s in mine) * scale
        m[metric] = total / sum(s.counts.get(counter, 0) for s in mine) if counter else total
    collisions = [s for s in spans if s.name == "critique.collision_search"
                  and "peak_rss_kb" in s.counts]
    if collisions:
        m["critique.collision_search.peak_rss_mb"] = max(s.counts["peak_rss_kb"]
                                                         for s in collisions) / 1024
        m["critique.collision_search.findings"] = sum(s.counts["findings"] for s in collisions)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(own[s.span_id] for s in spans
                                    if s.name.split(".", 1)[0] == layer) / 1e6
    m["trace.overhead_pct"] = 100.0 * (doc["traced_ns"] / doc["untraced_ns"] - 1)
    return m


def run_traced(wl, seconds: float, workdir: Path, env: dict) -> dict:
    fixture_dir = workdir / "fixture-inputs"
    if wl.name != "cli-cold":
        workloads.make("cli-cold", wl.seed, ROOT).write(fixture_dir)
    passes, failures, docs, measured, attempted = [], [], [], 0.0, 0
    while fits(measured, len(passes), seconds):
        index = len(passes)
        out = workdir / f"trace-pass{index}.json"
        res = spawn([str(HERE / "tracer.py"), wl.name, str(wl.seed), str(workdir / "inputs"),
                     str(fixture_dir), str(index), str(out)],
                    workdir / "tracer.out", workdir / "tracer.err", env)
        measured += res["wall_s"]
        if res["code"] != 0:
            failures.append(f"pass {index}: tracer exit {res['code']}: "
                            + (workdir / "tracer.err").read_text()[-500:])
            attempted += 1
            passes.append(res)
            continue
        doc = json.loads(out.read_text())
        attempted += doc["attempted"]
        failures.extend(f"pass {index} {f}" for f in doc["failures"])
        res["metrics"] = pass_metrics(doc)
        passes.append(res)
        docs.append(doc)
    measured_passes = [p["metrics"] for p in passes if "metrics" in p]
    metrics = ({k: statistics.median(p[k] for p in measured_passes) for k in measured_passes[0]}
               if measured_passes else {})
    return {
        "metrics": metrics,
        "extra": {"passes": len(passes)},
        "attempted": attempted,
        "failures": failures,
        "passes": passes,
        "traced_passes": docs,
    }


# -- main ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    resolved = check_resolution(env, workdir)
    load_before = load_sample()
    wl, setup_times, setup_scales = set_up(name, seed, workdir, env)
    import_tree()
    result = (run_traced if trace else run_cold)(wl, seconds, workdir, env)
    load_after = load_sample()
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            t * k for t, k in zip(setup_times, setup_scales))
        result["extra"]["raw"]["setup_s"] = statistics.median(setup_times)
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, ravkit_file=resolved,
        setup_s=setup_times, setup_scales=setup_scales, environment=environment(),
        load={"before": load_before, "after": load_after,
              "steal_pct": steal_pct(load_before, load_after)},
    )
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result))
    return result


def units_for(trace: bool) -> dict:
    """Metric name -> unit, in BENCHMARK.json order, for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary(result: dict, units: dict) -> str:
    extra = result["extra"]
    lines = [f"perfbench {result['workload']} seed={result['seed']} "
             f"seconds={result['seconds']} trace={int(result['trace'])}",
             "environment " + json.dumps(result["environment"], sort_keys=True),
             f"load before={result['load']['before']['loadavg']} "
             f"after={result['load']['after']['loadavg']} "
             f"steal={result['load']['steal_pct']:.2f}%"]
    notes = {
        "setup_s": f"median of {len(result['setup_s'])} set-ups",
        "wall_s": f"median of {extra['passes']} passes",
        "cpu_s": "children user+sys per pass, median",
        "invoke_p50_ms": f"n={extra.get('invocations')} cold invocations",
        "invoke_p90_ms": f"n={extra.get('invocations')} cold invocations",
        "peak_rss_mb": "largest single child ru_maxrss",
    }
    raw = extra.get("raw", {})
    if raw:
        lines.append(f"  timings at reference speed (raw: as measured on this host; "
                     f"calibration {REFERENCE_S} s at reference, median here "
                     f"{statistics.median(extra['calibrations_s']):.4f} s)")
    for key, unit in units.items():
        value = result["metrics"].get(key)
        shown = "missing" if value is None else f"{value:.6g}"
        also = f"raw {raw[key]:.6g}" if key in raw else ""
        lines.append(f"  {key:<42} {shown:>12} {unit:<8} {also:<16} {notes.get(key, '')}".rstrip())
    if not result["trace"]:
        for key, what in (("scopes_per_s", "rav / symbolic invocations"),
                          ("records_per_s", "trust invocations")):
            value, also = extra[key], raw.get(key)
            shown = f"{value:.6g}" if value else "n/a"
            also = f"raw {also:.6g}" if also else ""
            lines.append(f"  {key:<42} {shown:>12} {'1/s':<8} {also:<16} {what}")
    failed = len(result["failures"])
    lines.append(f"  {'fail_ratio':<42} {failed / result['attempted']:>12.6g} "
                 f"{'ratio':<8} {failed} failed of {result['attempted']} attempted")
    lines.extend("  FAILED " + f for f in result["failures"][:20])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    needed = [ROOT / "src" / "ravkit" / "cli.py", ROOT / "tests" / "fixtures" / "toy.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a ravkit source tree, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    units = units_for(trace)
    try:
        results = [run_workload(n, args.seed, args.seconds, trace) for n in names]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for result in results:
        print(summary(result, units))
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}/{k}" if prefix else k): {"value": r["metrics"][k], "unit": u}
               for r in results for k, u in units.items() if k in r["metrics"]}
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({
        "correct": failed == 0 and all(len(r["metrics"]) == len(units) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
