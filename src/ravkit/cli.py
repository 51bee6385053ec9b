"""Command-line front end.

Subcommands: ``rav`` (score scope files), ``import-nmap`` (scan XML to
porosity, optionally merged into a scope file), ``aggregate`` (combine
scopes), ``trust`` (score applicant CSVs), ``symbolic`` (render and
evaluate the symbolic score), ``demo`` (run the critique suite).

Exit codes: 0 success, 1 input error (unparseable files, bad flags) or a
temporary file that cannot be used, 2 domain error (zero-porosity scopes
with limitations, all-undefined trust records).  Output is deterministic
for identical inputs; errors go to stderr only.  RAVKIT_SEED provides a
fallback seed for ``demo``.

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
from .errors import DomainError, InputError, RavkitError, shown
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


class _HelpRequested(Exception):
    """``-h`` was given; carries the help text in place of printing it."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Read "-1e-9", "-inf" and "-nan" as values, as argparse already does
        # for "-1" and "-.5", so a negative float reaches the domain checks.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message: str) -> None:  # type: ignore[override]
        # argparse writes some arguments into its message raw (unrecognized
        # arguments, an ambiguous option such as "--=a<newline>b"); a message
        # that one would split is quoted whole.
        raise InputError(f"{shown(message)}\n{self.format_usage()}".rstrip())

    def print_help(self, file=None) -> None:
        # The -h action calls this, then exits; dispatch returns the text.
        raise _HelpRequested(self.format_help())


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The ``ravkit`` argument parser.

    When ``argv`` starts with a command name, only that command's subparser
    is built, since parsing never reaches the others; its help, usage and
    errors are the full parser's.  For no command, an option or an unknown
    name first (``-h``, say), every subparser is built.
    """
    parser = _Parser(prog="ravkit", description="rav scoring, trust rules, and critique suite")
    sub = parser.add_subparsers(dest="command", metavar="command")
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        summary, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def _rav_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("scope_file")
    p.add_argument("--format", choices=report.FORMATS, default="text")


def _import_nmap_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("xml_file")
    p.add_argument("--merge", metavar="SCOPE_FILE",
                   help="add the scanned porosity onto this file's first scope")


def _aggregate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("scope_files", nargs="+")
    p.add_argument("--format", choices=report.FORMATS, default="text")


def _trust_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("csv_file")
    p.add_argument("--mode", choices=("average", "sum", "max"), default="average")
    p.add_argument("--format", choices=report.FORMATS, default="text")


def _symbolic_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("scope_file")
    p.add_argument("--eval", dest="eval_spec", metavar="K=V,...", default=None,
                   help="evaluate at an assignment; unlisted variables default to 1")


def _demo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("permutation", "collision", "formula", "trust"),
                   default=None, help="run one kind only (default: all)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bounds", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=1e-9)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte, or a lone surrogate that no encoding takes.
        raise InputError(f"cannot read {shown(path)}: {exc}") from None


def _cmd_rav(args, out: BinaryIO) -> None:
    scopes = ingest.parse_scope_file(_read(args.scope_file))
    if not scopes:
        raise InputError(f"{shown(args.scope_file)}: no scopes in file")
    for i, scope in enumerate(scopes):
        if i and args.format == "text":
            out.write(b"\n")
        out.write(report.render_report(actual_security(scope), scope, args.format))


def _cmd_import_nmap(args, out: BinaryIO) -> None:
    scan = ingest.import_scan_report(_read(args.xml_file))
    if args.merge:
        document = ingest.parse_scope_document(_read(args.merge))
        if not document.entries:
            raise InputError(f"{shown(args.merge)}: no scopes to merge into")
        first = document.entries[0]
        merged = ingest.merge_scan_into_scope(scan.porosity, first.scope)
        entries = (ingest.ScopeEntry(scope=merged, units=first.units),) + document.entries[1:]
        out.write(ingest.render_scope_document(ingest.ScopeDocument(entries=entries)))
    else:
        entry = ingest.ScopeEntry(Scope(id="scan", porosity=scan.porosity))
        out.write(ingest.render_scope_document(ingest.ScopeDocument((entry,))))


def _cmd_aggregate(args, out: BinaryIO) -> None:
    scopes: list[Scope] = []
    for path in args.scope_files:
        scopes.extend(ingest.parse_scope_file(_read(path)))
    if not scopes:
        raise InputError("no scopes found in the given files")
    combined = aggregate_scopes(scopes)
    out.write(report.render_report(actual_security(combined), combined, args.format))


class _Scoring:
    """The records' (id, rule results, score) entries, each scored as the
    report reaches it, so an applicant's objects are dropped once it is
    rendered.  It has a length, the record count, so it can be counted
    without scoring anything."""

    def __init__(self, records: Sequence, mode: str) -> None:
        score_applicant = _layers.score_applicant
        self._count = len(records)
        self._left = ((r.applicant_id, *score_applicant(r, mode=mode)) for r in records)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return self._left


def _cmd_trust(args, out: BinaryIO) -> None:
    scoring = _Scoring(ingest.parse_applicants_csv(_read(args.csv_file)), args.mode)
    try:
        out.write(report.render_trust_report(scoring, args.format))
    except InputError:
        # A record that cannot be rendered yields to a domain error in any
        # later record, as it would if every record were scored first.
        for _ in scoring:
            pass
        raise


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
        name = name.strip()
        if not name:
            raise InputError(f"--eval: empty variable name in {item!r}")
        if name in assignment:
            raise InputError(f"--eval: variable {name!r} assigned twice, again in {item!r}")
        parsed = ingest.parse_rational(value.strip(), "--eval")
        # Exponent notation builds huge integers cheaply; past the float
        # range they could exceed the int-to-str limit when echoed back.
        if max(parsed.numerator.bit_length(), parsed.denominator.bit_length()) > 1024:
            raise InputError(f"--eval: value outside the float range: {value!r}")
        assignment[name] = parsed
    return assignment


def _cmd_symbolic(args, out: BinaryIO) -> None:
    document = ingest.parse_scope_document(_read(args.scope_file))
    if not document.entries:
        raise InputError(f"{shown(args.scope_file)}: no scopes in file")
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
        try:
            findings.extend(critique.collision_search(args.bounds, args.epsilon, seed))
        except OSError as exc:
            # The near pass spills its score runs to a temporary file.
            raise RavkitError(f"collision search: temporary file: {exc}") from None
    if args.kind in (None, "formula"):
        findings.append(critique.formula_discrepancy_demo())
    if args.kind in (None, "trust"):
        findings.append(critique.trust_aggregation_demo())
        findings.append(critique.trust_equivalence_demo())
    out.write(report.render_findings(findings))


#: Each command, in help order: its help line, the function that adds its
#: arguments to its subparser, and the function that runs it.
_COMMANDS = {
    "rav": ("compute Actual Security for every scope in a file", _rav_arguments, _cmd_rav),
    "import-nmap": ("derive porosity from scanner XML", _import_nmap_arguments, _cmd_import_nmap),
    "aggregate": ("combine scopes from one or more files", _aggregate_arguments, _cmd_aggregate),
    "trust": ("score applicant records from CSV", _trust_arguments, _cmd_trust),
    "symbolic": ("render the symbolic score of each scope", _symbolic_arguments, _cmd_symbolic),
    "demo": ("run the critique suite and emit findings JSON", _demo_arguments, _cmd_demo),
}


def dispatch(argv: Sequence[str]) -> tuple[int, bytes, bytes]:
    """Run one command line; returns (exit code, stdout bytes, stderr bytes)."""
    out = io.BytesIO()
    argv = list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise InputError(parser.format_usage().rstrip())
        _COMMANDS[args.command][2](args, out)
    except _HelpRequested as help_text:
        return 0, str(help_text).encode("utf-8"), b""
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
