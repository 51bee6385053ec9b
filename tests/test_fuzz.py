"""Fuzz gate for the command line.

Every command shape that reads a file runs in-process through
``cli.dispatch`` on drawn path arguments: missing files, files under missing
directories, and existing files that hold no scopes, whose names carry line
breaks, tabs and other control characters, other line separators, NUL,
lone surrogates and surrogate escapes (bytes that are not UTF-8).  Whatever
the path, no exception escapes ``dispatch``, the exit code is 1 or 2, and
stderr is exactly one line starting ``ravkit: ``.

Every command also runs on a fixture with drawn values for its options and
drawn extra arguments: near misses of the choices, control characters and
line breaks, exponents past the int-digit limit, nan and inf, huge ints.
No exception escapes; exit 0 leaves stderr empty, and exit 1 or 2 writes one
``ravkit: `` line, followed only by the usage text of the parser that
raised, if one did.  The draws are derandomized, so every run tries the same
command lines.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ravkit import cli
from ravkit.cli import dispatch

FIXTURES = Path(__file__).parent / "fixtures"
SCAN = str(FIXTURES / "scan_1host_1port.xml")
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


# -- option values and extra arguments ----------------------------------------

# Short strings mixing plain characters with the line-breaking ones above.
_TEXT = st.lists(st.one_of(_SPECIAL, _PLAIN), min_size=1, max_size=8).map("".join)


def _near_misses(choices: tuple[str, ...]) -> st.SearchStrategy[str]:
    """The choices themselves, and strings one slip away from one of them."""
    slips = (str.upper, str.title, lambda c: c[:-1], lambda c: c + "s", lambda c: " " + c,
             lambda c: c + "\n", lambda c: c + "\x00", lambda c: c.replace(c[0], c[0] + "\u200b", 1))
    return st.tuples(st.sampled_from(choices), st.sampled_from((str,) + slips)).map(
        lambda pair: pair[1](pair[0])
    )


_DIGIT_LIMIT = sys.get_int_max_str_digits()
_NUMBERS = st.one_of(
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e309", "-1e309",
                     "1e-400", "0", "-0", "1_000", "0x10", "1.5", ".", "", "-", "+7",
                     "\u0663", f"1e{_DIGIT_LIMIT + 1}", f"1e-{_DIGIT_LIMIT + 1}",
                     "9" * (_DIGIT_LIMIT + 1), "1" + "0" * 400, f"-{2**63}", f"{2**64}"]),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_VALUES = st.one_of(_NUMBERS, _TEXT)

# An --eval item: a name, "=", a value, any part of it possibly malformed.
_EVAL_ITEMS = st.one_of(
    st.tuples(st.sampled_from(["h", "p", "l", "x", "", " h ", "h\n", "\x1b"]),
              st.sampled_from(["=", "", "=="]), _VALUES).map("".join),
    _TEXT,
)
_EVAL_SPECS = st.lists(_EVAL_ITEMS, min_size=1, max_size=3).map(",".join)

# Bounds that are refused or run in milliseconds: the search at bounds 2 to 6
# takes seconds to minutes.
_FAST_BOUNDS = st.one_of(
    st.integers(-(10**30), 1).map(str),
    st.integers(7, 10**30).map(str),
    _VALUES.filter(lambda text: not _is_int_between(text, 2, 6)),
)


def _is_int_between(text: str, low: int, high: int) -> bool:
    try:
        return low <= int(text) <= high
    except ValueError:
        return False


# Extra arguments: values, and option-like strings that set nothing.  A
# drawn "--b..." could abbreviate --bounds and start a slow search.
_EXTRAS = st.one_of(
    _VALUES.filter(lambda text: not text.startswith("--")),
    st.sampled_from(["-", "--", "--=", "--=a\nb", "--bogus", "--bogus=\x1b", "-q\n", "-h"]),
)

#: Each command: its fixed arguments, then each option and its values.
OPTIONS = {
    "rav": ([str(FIXTURES / "toy.json")], {"--format": _near_misses(("text", "json"))}),
    "aggregate": ([str(FIXTURES / "toy.json")], {"--format": _near_misses(("text", "json"))}),
    "trust": ([str(FIXTURES / "applicants.csv")], {
        "--format": _near_misses(("text", "json")),
        "--mode": _near_misses(("average", "sum", "max")),
    }),
    "symbolic": ([str(FIXTURES / "toy.json")], {"--eval": _EVAL_SPECS}),
    "import-nmap": ([SCAN], {}),
    "demo": ([], {
        "--kind": _near_misses(("permutation", "collision", "formula", "trust")),
        "--seed": _VALUES,
        "--epsilon": _VALUES,
    }),
}


@st.composite
def command_lines(draw, command: str) -> list[str]:
    fixed, options = OPTIONS[command]
    argv = [command, *fixed]
    if options:
        chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
        for option in chosen:
            argv += [option, draw(options[option])]
    if command == "demo":
        argv += ["--bounds", draw(_FAST_BOUNDS)]
    return argv + draw(st.lists(_EXTRAS, max_size=2))


def assert_error_contract(argv: list[str]) -> None:
    """Run ``argv``; on failure stderr is one ``ravkit: `` line, then at most
    the usage text of the parser that raised, as it formats it here."""
    usages = []
    parser_error = cli._Parser.error

    def error(parser, message):
        usages.append(parser.format_usage())
        parser_error(parser, message)

    with mock.patch.object(cli._Parser, "error", error):
        code, out, err = dispatch(argv)  # an exception escaping fails the test
    if code == 0:
        assert err == b"", (argv, err)
        return
    assert code in (1, 2), (argv, code, err)
    text = err.decode("utf-8", "surrogateescape")
    usage = usages[-1] if usages else ""
    assert text.endswith(usage), (argv, err)
    line = text[: len(text) - len(usage)]
    assert line.startswith("ravkit: ") and line.endswith("\n"), (argv, err)
    # Decoded as the terminal would show it: one line, however it splits.
    assert len(line.splitlines()) == 1, (argv, err)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=st.sampled_from(sorted(OPTIONS)).flatmap(command_lines))
@example(argv=["rav", str(FIXTURES / "toy.json"), "a\nb"])
@example(argv=["rav", str(FIXTURES / "toy.json"), "--=a\nb"])
@example(argv=["symbolic", str(FIXTURES / "toy.json"), "--eval", "=2"])
@example(argv=["symbolic", str(FIXTURES / "toy.json"), "--eval", "h=1e400"])
def test_option_values_and_extra_arguments_keep_the_error_contract(argv):
    assert_error_contract(argv)
