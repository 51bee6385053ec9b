"""Every demo script runs to completion against the source tree and prints
exactly its recorded stdout, under any hash seed."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: The recorded stdout of each demo, one file named after the script.
RECORDED = ROOT / "tests" / "fixtures" / "demos"


def _run(script: Path, hash_seed: str | None) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert b"Traceback" not in proc.stderr
    return proc.stdout


def _recorded(script: Path) -> bytes:
    return (RECORDED / f"{script.stem}.txt").read_bytes()


def test_demos_present():
    assert len(DEMOS) >= 6
    assert sorted(p.stem for p in RECORDED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(script):
    assert _run(script, None) == _recorded(script)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_stdout_does_not_depend_on_the_hash_seed(script):
    assert _run(script, "123") == _recorded(script)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_recorded_stdout_prints_no_float_past_nine_decimals(script):
    # A float printed to more places would pin the last bits of a libm call.
    text = _recorded(script).decode("utf-8")
    assert text and not re.search(r"\d\.\d{10}", text)
