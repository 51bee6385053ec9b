"""Fuzz gate for command-line paths.

Every command shape that reads a file runs in-process through
``cli.dispatch`` on drawn path arguments: missing files, files under missing
directories, and existing files that hold no scopes, whose names carry line
breaks, tabs and other control characters, other line separators, NUL,
lone surrogates and surrogate escapes (bytes that are not UTF-8).  Whatever
the path, no exception escapes ``dispatch``, the exit code is 1 or 2, and
stderr is exactly one line starting ``ravkit: ``.  The draws are
derandomized, so every run tries the same paths.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ravkit.cli import dispatch

SCAN = str(Path(__file__).parent / "fixtures" / "scan_1host_1port.xml")
NO_SCOPES = b'{"schema": "ravkit-scope/1", "scopes": []}'

#: Each command shape that reads a file, given the drawn path.
SHAPES = {
    "rav": lambda path: ["rav", path],
    "aggregate": lambda path: ["aggregate", path],
    "symbolic": lambda path: ["symbolic", path],
    "trust": lambda path: ["trust", path],
    "import-nmap": lambda path: ["import-nmap", path],
    "import-nmap --merge": lambda path: ["import-nmap", SCAN, "--merge", path],
}

# Characters that can break an error line or its encoding, beside plain ones.
_SPECIAL = st.sampled_from(
    ["\n", "\r", "\r\n", "\t", "\x0b", "\x0c", "\x1b", "\x1c", "\x7f", "\x85",
     "\xa0", "\u2028", "\u2029", "\ufeff", " ", "\xe9", "\N{SNOWMAN}"]
)
_SURROGATE_ESCAPE = st.integers(0x80, 0xFF).map(lambda byte: chr(0xDC00 + byte))
_PLAIN = st.characters(min_codepoint=0x20, max_codepoint=0x17F, exclude_characters="/")
# Characters a file name may hold: no "/", no NUL, no lone surrogate.
_NAME_CHAR = st.one_of(_SPECIAL, _SURROGATE_ESCAPE, _PLAIN)
_NAMES = st.lists(_NAME_CHAR, min_size=1, max_size=12).map("".join)
# Characters only a missing path can hold: open() refuses them outright.
_ANY_NAMES = st.lists(
    st.one_of(_NAME_CHAR, st.sampled_from(["\x00", "\ud800", "\udfff"])), min_size=1, max_size=12
).map("".join)

_GATE = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("fuzz"))


def assert_one_error_line(argv: list[str]) -> None:
    code, _, err = dispatch(argv)  # an exception escaping fails the test
    assert code in (1, 2), (argv, code, err)
    assert err.startswith(b"ravkit: ") and err.endswith(b"\n"), (argv, err)
    # Decoded as the terminal would show it: one line, however it splits.
    assert len(err.decode("utf-8", "surrogateescape").splitlines()) == 1, (argv, err)


@pytest.mark.parametrize("shape", SHAPES)
@_GATE
@given(name=_ANY_NAMES, under_missing_dir=st.booleans())
@example(name="a\nb", under_missing_dir=False)
def test_missing_path_gives_one_error_line(base, shape, name, under_missing_dir):
    path = f"{base}/no-such-dir/{name}" if under_missing_dir else f"{base}/missing-{name}"
    assert_one_error_line(SHAPES[shape](path))


@pytest.mark.parametrize("shape", SHAPES)
@_GATE
@given(name=_NAMES)
@example(name="no\nscopes")
def test_file_with_no_scopes_gives_one_error_line(base, shape, name):
    path = f"{base}/{name}.json"
    with open(path, "wb") as handle:
        handle.write(NO_SCOPES)
    try:
        assert_one_error_line(SHAPES[shape](path))
    finally:
        os.unlink(path)
