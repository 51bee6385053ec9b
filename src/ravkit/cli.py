"""Command-line front end.

Subcommands: ``rav`` (score scope files), ``import-nmap`` (scan XML to
porosity, optionally merged into a scope file), ``aggregate`` (combine
scopes), ``trust`` (score applicant CSVs), ``symbolic`` (render and
evaluate the symbolic score), ``demo`` (run the critique suite).

Exit codes: 0 success, 1 input error (unparseable files, bad flags),
2 domain error (zero-porosity scopes with limitations, all-undefined
trust records).  Output is deterministic for identical inputs; errors go
to stderr only.  RAVKIT_SEED provides a fallback seed for ``demo``.

Each command loads only the layers it runs: ``ingest``, ``report`` and the
``metrics`` functions load with this module, while ``critique``,
``symbolic_rav`` and ``score_applicant`` load the first time they are read
as attributes of this module (PEP 562).
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from fractions import Fraction
from typing import BinaryIO, Sequence

from . import ingest, report
from .errors import DomainError, InputError, RavkitError
from .metrics import Scope, actual_security, aggregate_scopes


def __getattr__(name: str):
    # The layers only some commands run, loaded the first time they are read.
    if name == "critique":
        from . import critique as value
    elif name == "symbolic_rav":
        from .symbolic import symbolic_rav as value
    elif name == "score_applicant":
        from .trust import score_applicant as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# The commands call every layer through a module attribute read when they
# run, so a layer replaced on this module (say, wrapped by a profiler) is the
# one called.  The eager layers are globals, which a function reads at call
# time anyway; the lazy ones are globals only once loaded, so the commands
# read those through the module object, which falls back on __getattr__.
_layers = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Read "-1e-9", "-inf" and "-nan" as values, as argparse already does
        # for "-1" and "-.5", so a negative float reaches the domain checks.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(f"{message}\n{self.format_usage()}".rstrip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ravkit", description="rav scoring, trust rules, and critique suite")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_rav = sub.add_parser("rav", help="compute Actual Security for every scope in a file")
    p_rav.add_argument("scope_file")
    p_rav.add_argument("--format", choices=report.FORMATS, default="text")

    p_imp = sub.add_parser("import-nmap", help="derive porosity from scanner XML")
    p_imp.add_argument("xml_file")
    p_imp.add_argument("--merge", metavar="SCOPE_FILE",
                       help="add the scanned porosity onto this file's first scope")

    p_agg = sub.add_parser("aggregate", help="combine scopes from one or more files")
    p_agg.add_argument("scope_files", nargs="+")
    p_agg.add_argument("--format", choices=report.FORMATS, default="text")

    p_trust = sub.add_parser("trust", help="score applicant records from CSV")
    p_trust.add_argument("csv_file")
    p_trust.add_argument("--mode", choices=("average", "sum", "max"), default="average")
    p_trust.add_argument("--format", choices=report.FORMATS, default="text")

    p_sym = sub.add_parser("symbolic", help="render the symbolic score of each scope")
    p_sym.add_argument("scope_file")
    p_sym.add_argument("--eval", dest="eval_spec", metavar="K=V,...", default=None,
                       help="evaluate at an assignment; unlisted variables default to 1")

    p_demo = sub.add_parser("demo", help="run the critique suite and emit findings JSON")
    p_demo.add_argument("--kind", choices=("permutation", "collision", "formula", "trust"),
                        default=None, help="run one kind only (default: all)")
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--bounds", type=int, default=3)
    p_demo.add_argument("--epsilon", type=float, default=1e-9)
    return parser


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _cmd_rav(args, out: BinaryIO) -> None:
    scopes = ingest.parse_scope_file(_read(args.scope_file))
    if not scopes:
        raise InputError(f"{args.scope_file}: no scopes in file")
    for i, scope in enumerate(scopes):
        if i and args.format == "text":
            out.write(b"\n")
        out.write(report.render_report(actual_security(scope), scope, args.format))


def _cmd_import_nmap(args, out: BinaryIO) -> None:
    scan = ingest.import_scan_report(_read(args.xml_file))
    if args.merge:
        document = ingest.parse_scope_document(_read(args.merge))
        if not document.entries:
            raise InputError(f"{args.merge}: no scopes to merge into")
        first = document.entries[0]
        merged = ingest.merge_scan_into_scope(scan.porosity, first.scope)
        entries = (ingest.ScopeEntry(scope=merged, units=first.units),) + document.entries[1:]
        out.write(ingest.render_scope_document(ingest.ScopeDocument(entries=entries)))
    else:
        scope = Scope(id="scan", porosity=scan.porosity)
        out.write(ingest.render_scope_document([scope]))


def _cmd_aggregate(args, out: BinaryIO) -> None:
    scopes: list[Scope] = []
    for path in args.scope_files:
        scopes.extend(ingest.parse_scope_file(_read(path)))
    if not scopes:
        raise InputError("no scopes found in the given files")
    combined = aggregate_scopes(scopes)
    out.write(report.render_report(actual_security(combined), combined, args.format))


def _cmd_trust(args, out: BinaryIO) -> None:
    records = ingest.parse_applicants_csv(_read(args.csv_file))
    scored = []
    score_applicant = _layers.score_applicant
    for record in records:
        results, score = score_applicant(record, mode=args.mode)
        scored.append((record.applicant_id, results, score))
    out.write(report.render_trust_report(scored, args.format))


def _parse_assignment(spec: str | None) -> dict[str, Fraction]:
    if not spec:
        return {}
    assignment: dict[str, Fraction] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"--eval: expected K=V, got {item!r}")
        name, _, value = item.partition("=")
        try:
            parsed = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"--eval: not a rational value: {value!r}") from None
        # Exponent notation builds huge integers cheaply; past the float
        # range they could exceed the int-to-str limit when echoed back.
        if max(parsed.numerator.bit_length(), parsed.denominator.bit_length()) > 1024:
            raise InputError(f"--eval: value outside the float range: {value!r}")
        assignment[name.strip()] = parsed
    return assignment


def _cmd_symbolic(args, out: BinaryIO) -> None:
    document = ingest.parse_scope_document(_read(args.scope_file))
    if not document.entries:
        raise InputError(f"{args.scope_file}: no scopes in file")
    overrides = _parse_assignment(args.eval_spec)
    symbolic_rav = _layers.symbolic_rav
    blocks = []
    for entry in document.entries:
        score = symbolic_rav(entry.scope, entry.units or None)
        assignment = {name: Fraction(1) for name in sorted(score.variables())}
        assignment.update({k: v for k, v in overrides.items() if k in assignment})
        value = score.evaluate(assignment)
        point = ", ".join(f"{k}={assignment[k]}" for k in sorted(assignment)) or "-"
        blocks.append(
            f"scope: {entry.scope.id}\n"
            f"  actsec = {score.render()}\n"
            f"  at {point}: {value:.6f}\n"
        )
    out.write("\n".join(blocks).encode("utf-8"))


def _cmd_demo(args, out: BinaryIO) -> None:
    seed = args.seed
    if seed is None:
        text = os.environ.get("RAVKIT_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise InputError(f"RAVKIT_SEED: not an integer: {text!r}") from None
    critique = _layers.critique
    findings = []
    if args.kind in (None, "permutation"):
        from .metrics import ControlClass, toy_scope

        findings.append(
            critique.permutation_demo(
                toy_scope(), ControlClass.AUTHENTICATION, ControlClass.CONTINUITY
            )
        )
        findings.append(critique.cross_class_counterexample())
    if args.kind in (None, "collision"):
        findings.extend(
            critique.collision_search(args.bounds, args.epsilon, seed)
        )
    if args.kind in (None, "formula"):
        findings.append(critique.formula_discrepancy_demo())
    if args.kind in (None, "trust"):
        findings.append(critique.trust_aggregation_demo())
        findings.append(critique.trust_equivalence_demo())
    out.write(report.render_findings(findings))


_COMMANDS = {
    "rav": _cmd_rav,
    "import-nmap": _cmd_import_nmap,
    "aggregate": _cmd_aggregate,
    "trust": _cmd_trust,
    "symbolic": _cmd_symbolic,
    "demo": _cmd_demo,
}


def dispatch(argv: Sequence[str]) -> tuple[int, bytes, bytes]:
    """Run one command line; returns (exit code, stdout bytes, stderr bytes)."""
    out = io.BytesIO()
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if not args.command:
            raise InputError(parser.format_usage().rstrip())
        _COMMANDS[args.command](args, out)
    except DomainError as exc:
        return 2, out.getvalue(), _error_line("domain error", exc)
    except RavkitError as exc:
        return 1, out.getvalue(), _error_line("error", exc)
    return 0, out.getvalue(), b""


def _error_line(label: str, exc: Exception) -> bytes:
    # surrogateescape gives back the raw bytes of a command-line path that
    # is not valid UTF-8.
    return f"ravkit: {label}: {exc}\n".encode("utf-8", "surrogateescape")


def main(argv: Sequence[str] | None = None) -> int:
    code, out, err = dispatch(sys.argv[1:] if argv is None else argv)
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    if err:
        sys.stderr.buffer.write(err)
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
