"""What each command loads: only the layers it runs, and numpy only for the
collision search.  The layer attributes of ``ravkit.cli`` stay replaceable.

Each probe runs in a fresh interpreter, because ``sys.modules`` only grows.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ravkit
import ravkit.cli as cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# Prints the ravkit modules, whether numpy is loaded and which of dataclasses
# and inspect are loaded after importing ravkit or running one command line
# through the CLI in-process.
PROBE = """\
import json, sys
if sys.argv[1:] == ["--import-only"]:
    import ravkit
else:
    from ravkit.cli import dispatch
    code, _, err = dispatch(sys.argv[1:])
    assert code == 0, err
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "ravkit": sorted(m for m in sys.modules if m.split(".")[0] == "ravkit"),
    "record_machinery": sorted({"dataclasses", "inspect"} & set(sys.modules)),
}))
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
COLLISION_DEMO = ["demo", "--kind", "collision", "--bounds", "1"]

# The layers every command loads with ravkit.cli, then what each shape adds:
# scope reports (rav, aggregate) load no symbolic, trust or critique layer,
# and only the trust demos load trust.
CLI_BASE = {"cli", "errors", "ingest", "metrics", "report"}
SYMBOLIC = {"symbolic", "polynomial", "ratfun"}
LAYERS = {
    "import-ravkit": set(),
    "rav-text": CLI_BASE,
    "rav-json": CLI_BASE,
    "aggregate": CLI_BASE,
    "import-nmap-merge": CLI_BASE,
    "trust": CLI_BASE | {"trust"},
    "symbolic-eval": CLI_BASE | SYMBOLIC,
    "demo-formula": CLI_BASE | {"critique"},
    "demo-permutation": CLI_BASE | {"critique"},
    "demo-trust": CLI_BASE | {"critique", "trust"},
    "demo-collision": CLI_BASE | {"critique"},
}
SHAPES = {**WITHOUT_NUMPY, "demo-collision": COLLISION_DEMO}


@functools.lru_cache(maxsize=None)
def probe(argv: tuple[str, ...]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, cwd=FIXTURES, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return json.loads(proc.stdout)


def numpy_loaded(argv: list[str]) -> bool:
    return probe(tuple(argv))["numpy"]


@pytest.mark.parametrize("argv", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY.keys())
def test_command_does_not_load_numpy(argv):
    assert not numpy_loaded(argv)


@pytest.mark.parametrize("argv", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY.keys())
def test_command_does_not_load_dataclasses_or_inspect(argv):
    # The record classes are written out in source: building them with
    # @dataclass would import dataclasses, and with it inspect, at start-up.
    assert probe(tuple(argv))["record_machinery"] == []


def test_collision_demo_loads_numpy():
    # The control: the probe does see numpy when the collision search runs.
    assert numpy_loaded(COLLISION_DEMO)


@pytest.mark.parametrize("shape", LAYERS)
def test_command_loads_only_its_layers(shape):
    loaded = probe(tuple(SHAPES[shape]))["ravkit"]
    assert loaded == sorted({"ravkit", *(f"ravkit.{m}" for m in LAYERS[shape])})


class TestPackageNames:
    def test_every_exported_name_resolves_to_its_submodule_object(self):
        for name in ravkit.__all__:
            module = importlib.import_module(f"ravkit.{ravkit._SOURCE_OF[name]}")
            assert getattr(ravkit, name) is getattr(module, name), name

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from ravkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(ravkit.__all__)

    def test_exported_names_are_unique_and_listed_by_dir(self):
        assert len(set(ravkit.__all__)) == len(ravkit.__all__)
        assert set(ravkit.__all__) <= set(dir(ravkit))
        assert ravkit.__version__ == "0.1.0"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ravkit.no_such_name  # noqa: B018
        with pytest.raises(AttributeError, match="no_such_layer"):
            cli.no_such_layer  # noqa: B018

    def test_submodule_import_through_the_package(self):
        from ravkit import critique, symbolic

        assert critique.collision_search is ravkit.collision_search
        assert symbolic.UNIT_KINDS is ravkit.metrics.UNIT_KINDS


class _Recorder:
    """Stands in for a layer module: records each function the CLI calls."""

    def __init__(self, module, calls: list):
        self._module, self._calls = module, calls

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not callable(value) or isinstance(value, type):
            return value

        def recorded(*args, **kwargs):
            self._calls.append(name)
            return value(*args, **kwargs)

        return recorded


# Each layer attribute of ravkit.cli, a command that calls it, and a function
# the command calls through it.  A profiler that replaces these attributes on
# the module sees every call the commands make into a layer.
LAYER_ATTRIBUTES = {
    "ingest": (["rav", "toy.json"], "parse_scope_file"),
    "report": (["rav", "toy.json"], "render_report"),
    "critique": (["demo", "--kind", "formula"], "formula_discrepancy_demo"),
    "actual_security": (["rav", "toy.json"], "actual_security"),
    "aggregate_scopes": (["aggregate", "fifty.json", "hundred.json"], "aggregate_scopes"),
    "symbolic_rav": (["symbolic", "toy.json"], "symbolic_rav"),
    "score_applicant": (["trust", "applicants.csv"], "score_applicant"),
}


@pytest.mark.parametrize("name", LAYER_ATTRIBUTES)
def test_replaced_layer_attribute_is_what_the_command_calls(name, monkeypatch):
    argv, function = LAYER_ATTRIBUTES[name]
    argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
    expected = cli.dispatch(argv)
    original = getattr(cli, name)
    calls: list[str] = []
    if function == name:
        def replacement(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
    else:
        replacement = _Recorder(original, calls)
    monkeypatch.setattr(cli, name, replacement)
    assert cli.dispatch(argv) == expected
    assert function in calls
