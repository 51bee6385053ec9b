"""Which commands load numpy: only the collision search needs it.

Each case runs in a fresh interpreter, because ``sys.modules`` only grows.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# Prints whether numpy is loaded after importing ravkit or running one
# command line through the CLI in-process.
PROBE = """\
import sys
if sys.argv[1:] == ["--import-only"]:
    import ravkit
else:
    from ravkit.cli import dispatch
    code, _, err = dispatch(sys.argv[1:])
    assert code == 0, err
print("numpy" in sys.modules)
"""

# One case per cold-CLI command shape of the benchmark, collision demo aside.
WITHOUT_NUMPY = {
    "import-ravkit": ["--import-only"],
    "rav-text": ["rav", "toy.json"],
    "rav-json": ["rav", "toy.json", "--format", "json"],
    "trust": ["trust", "applicants.csv"],
    "symbolic-eval": ["symbolic", "toy.json", "--eval", "h=2,p=3"],
    "import-nmap-merge": ["import-nmap", "scan_1host_1port.xml", "--merge", "toy.json"],
    "aggregate": ["aggregate", "fifty.json", "hundred.json"],
    "demo-formula": ["demo", "--kind", "formula"],
    "demo-permutation": ["demo", "--kind", "permutation"],
    "demo-trust": ["demo", "--kind", "trust"],
}


def numpy_loaded(argv: list[str]) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, cwd=FIXTURES, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout.strip() == b"True"


@pytest.mark.parametrize("argv", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY.keys())
def test_command_does_not_load_numpy(argv):
    assert not numpy_loaded(argv)


def test_collision_demo_loads_numpy():
    # The control: the probe does see numpy when the collision search runs.
    assert numpy_loaded(["demo", "--kind", "collision", "--bounds", "1"])
