"""Help, usage and argument-error output of the command line, byte for byte.

Each case runs ``python -m ravkit.cli`` in a fresh interpreter from the
fixtures directory with an 80-column terminal and compares the exit code and
both streams with ``tests/fixtures/usage/<case>.txt``: stdout on exit 0,
stderr otherwise, the other stream empty.  The files were recorded with
Python 3.11's argparse; other versions word some of these messages
differently, so the byte-for-byte comparison runs on 3.11 only.  The
comparison of the one-command parser with the full parser runs everywhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ravkit import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDENS = FIXTURES / "usage"

# case -> (argv, exit code)
CASES = {
    "help": (["-h"], 0),
    "help-rav": (["rav", "-h"], 0),
    "help-import-nmap": (["import-nmap", "-h"], 0),
    "help-aggregate": (["aggregate", "-h"], 0),
    "help-trust": (["trust", "-h"], 0),
    "help-symbolic": (["symbolic", "-h"], 0),
    "help-demo": (["demo", "-h"], 0),
    "no-command": ([], 1),
    "unknown-command": (["scan", "toy.json"], 1),
    "missing-positional": (["rav"], 1),
    "missing-positionals": (["aggregate", "--format", "json"], 1),
    "bad-format": (["rav", "toy.json", "--format", "xml"], 1),
    "bad-mode": (["trust", "applicants.csv", "--mode", "min"], 1),
    "bad-seed": (["demo", "--seed", "x"], 1),
    "bad-bounds": (["demo", "--bounds", "x"], 1),
    "negative-epsilon": (["demo", "--kind", "collision", "--epsilon", "-1e-9"], 2),
    "unrecognized-argument": (["rav", "toy.json", "--bogus"], 1),
    "option-before-command": (["--format", "json", "rav", "toy.json"], 1),
}

RECORDED_ON = (3, 11)


def run_cold(argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, COLUMNS="80", LINES="24")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ravkit.cli", *argv],
        capture_output=True, cwd=FIXTURES, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON,
                    reason="goldens recorded with Python 3.11's argparse")
@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case):
    argv, expected_code = CASES[case]
    code, out, err = run_cold(argv)
    golden = (GOLDENS / f"{case}.txt").read_bytes()
    assert code == expected_code
    assert (out, err) == ((golden, b"") if code == 0 else (b"", golden))


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][1] != 0])
def test_one_command_parser_fails_like_the_full_parser(case, monkeypatch):
    argv = CASES[case][0]
    monkeypatch.chdir(FIXTURES)
    expected = cli.dispatch(argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full_parser())
    assert cli.dispatch(argv) == expected


@pytest.mark.parametrize("command", [argv[0] for argv, code in CASES.values()
                                     if code == 0 and argv[0] != "-h"])
def test_one_command_help_is_the_full_parsers(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for parser in (cli.build_parser([command, "-h"]), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "-h"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith(f"usage: ravkit {command} ")
