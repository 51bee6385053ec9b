"""The README's library quick start runs against the source tree and prints
what its comments say."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quick_start() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_start_prints_what_its_comments_say():
    code = _quick_start()
    # Each print line's comment starts with the line it prints, then a
    # comma and a note, or nothing.
    expected = [
        comment.split(",")[0].strip()
        for comment in re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=60, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert len(expected) == 3
    assert proc.stdout.splitlines() == expected
    # The symbolic value agrees with the numeric one to float rounding.
    numeric, symbolic = float(expected[0]), float(expected[2])
    assert abs(numeric - symbolic) <= 1e-12 * abs(numeric)
