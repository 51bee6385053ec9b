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
raised, if one did.

Last, every command that reads a file runs on drawn mutations of the
fixtures' contents (scope JSON, applicant CSV, scanner XML) under the same
contract, and every mutated scope that ``rav`` scores must give the same
``actsec`` through the symbolic pipeline at all-ones.  The draws are
derandomized, so every run tries the same command lines and files.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ravkit import cli
from ravkit.cli import dispatch
from ravkit.errors import InputError, RavkitError
from ravkit.ingest import CSV_COLUMNS, parse_scope_document
from ravkit.metrics import actual_security
from ravkit.report import render_report
from ravkit.symbolic import symbolic_rav

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


# -- file contents ------------------------------------------------------------
#
# Every command that reads a file runs on drawn mutations of a fixture's
# contents, under the error contract above.  Scope documents are mutated as
# JSON (a value replaced, a member deleted or added) and then as bytes; an
# applicant CSV in its cells, header, column set, row lengths, quoting, line
# ends, byte-order mark and bytes; scanner XML in its elements, attributes,
# encoding declaration and text.  Each example runs in milliseconds: the
# drawn documents are a few hundred bytes past their fixture, and nothing is
# drawn that makes `symbolic` slow: a mutation adds at most three unit
# names, so no scope has more than a handful of unit variables, and
# `units_symbolic.json` (5-8 unit variables per scope) is not a base.  No
# XML entity is declared, so no entity expands.

_DOCS = [json.loads((FIXTURES / name).read_text())
         for name in ("toy.json", "multi_scope.json", "fifty.json", "empty.json",
                      "controls_limits.json")]
_TOY = str(FIXTURES / "toy.json")

_COUNTS = st.one_of(
    st.integers(0, 5),
    st.sampled_from([-1, -(10**6), 10**6, 2**63, 10**300, 10 ** (_DIGIT_LIMIT - 1)]),
)
_SCOPE_WORDS = st.sampled_from([
    "schema", "scopes", "id", "channel", "vector", "index", "porosity", "controls",
    "limitations", "units", "visibility", "access", "trust", "authentication", "alarm",
    "non-repudiation", "vulnerabilities", "anomalies", "ravkit-scope/1", "aggregate",
    "human", "h", "p", "l", "", "zeta", "a\nb", "\ud800",
])
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _COUNTS, _SCOPE_WORDS, _TEXT,
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_SCOPE_WORDS, inner, max_size=3)),
    max_leaves=5,
)


def _members(node) -> list:
    """Every (container, key) pair at or under ``node``, in document order."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_members(value))
    return out


def _spliced(draw, data: bytes, snippets: st.SearchStrategy) -> bytes:
    """``data`` cut short, or with a drawn snippet at a drawn position, or as is."""
    at = draw(st.integers(0, len(data)))
    how = draw(st.sampled_from(["keep", "keep", "keep", "keep", "cut", "insert"]))
    if how == "cut":
        return data[:at]
    if how == "insert":
        return data[:at] + draw(snippets) + data[at:]
    return data


@st.composite
def scope_documents(draw) -> bytes:
    # The document sits in a holder, so that it can be replaced whole.
    holder = [copy.deepcopy(draw(st.sampled_from(_DOCS)))]
    for _ in range(draw(st.integers(1, 3))):
        members = _members(holder[0]) + [(holder, 0)]
        how = draw(st.sampled_from(["count", "count", "replace", "delete", "add"]))
        if how == "count":
            # A count for a count keeps most documents scoring.
            members = [(c, k) for c, k in members if type(c[k]) is int] or members
        container, key = draw(st.sampled_from(members))
        if how == "count":
            container[key] = draw(_COUNTS)
        elif how == "replace":
            container[key] = draw(_JSON_VALUES)
        elif how == "delete" and container is not holder:
            del container[key]
        elif isinstance(container[key], dict):
            container[key][draw(_SCOPE_WORDS)] = draw(_JSON_VALUES)
        elif isinstance(container[key], list):
            container[key].append(draw(_JSON_VALUES))
    text = json.dumps(holder[0], ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 2])))
    snippets = st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\x00", b",", b"{", b"]", b'"',
                                b"\\ud800", b"1e400", b"-", b"NaN", b"\n", b"[" * 40])
    return _spliced(draw, text.encode("utf-8", "surrogatepass"), snippets)


#: Each command shape that reads a scope document, given its path.
SCOPE_SHAPES = {
    "rav": lambda path: ["rav", path],
    "rav --format json": lambda path: ["rav", path, "--format", "json"],
    "aggregate": lambda path: ["aggregate", path, _TOY],
    "aggregate --format json": lambda path: ["aggregate", _TOY, path, "--format", "json"],
    "symbolic": lambda path: ["symbolic", path],
    "symbolic --eval": lambda path: ["symbolic", path, "--eval", "h=2,p=3/2,l=5,t=1e2"],
    "import-nmap --merge": lambda path: ["import-nmap", SCAN, "--merge", path],
}

# The unit map and point of test_1000_random_scopes_agree_with_numeric_pipeline.
_UNITS = {"visibility": "h", "access": "p", "trust": "t", "authentication": "l"}
_ONES = dict.fromkeys("hptl", 1)


def assert_symbolic_agrees(data: bytes) -> None:
    """Every scope of ``data`` that scores, that ``rav`` reports, has the
    same ``actsec`` through the symbolic pipeline at all-ones."""
    try:
        document = parse_scope_document(data)
    except InputError:
        return
    for entry in document.entries:
        try:
            breakdown = actual_security(entry.scope)
            render_report(breakdown, entry.scope, "text")
        except RavkitError:
            continue  # the scope does not score
        got = symbolic_rav(entry.scope, _UNITS).evaluate(_ONES)
        assert got == pytest.approx(breakdown.actsec, rel=1e-9), entry.scope


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(data=scope_documents(), shape=st.sampled_from(sorted(SCOPE_SHAPES)))
def test_mutated_scope_document_keeps_the_error_contract(base, data, shape):
    path = f"{base}/scopes.json"
    with open(path, "wb") as handle:
        handle.write(data)
    assert_error_contract(SCOPE_SHAPES[shape](path))
    assert_symbolic_agrees(data)


_CSV_ROWS = list(csv.reader(io.StringIO((FIXTURES / "applicants.csv").read_text())))
_CSV_CELLS = st.one_of(
    st.sampled_from([
        "", "0", "1", "8", "18", "-1", "-3", "+3", " 4 ", "1_000", "1.5", "1/2", "17/2", "1/0",
        "0/0", "-1/2", "\u0663", "\u00b2", "\uff19", "1e2", "1e99999", f"1e{_DIGIT_LIMIT + 1}",
        "9" * (_DIGIT_LIMIT + 1), "7" * 400, "nan", "inf", '"', 'a"b', "a,b", "a\nb", "\r",
        "\x00", "\ufeff", "\ud800",
    ]),
    st.integers(0, 10**6).map(str),
    _TEXT,
)
_CSV_NAMES = st.one_of(
    st.sampled_from(CSV_COLUMNS),
    st.sampled_from(CSV_COLUMNS).map(str.upper),
    st.sampled_from(["", " ", "bogus", "applicant id", "a\nb", "\ufeffapplicant_id"]),
    _TEXT,
)


@st.composite
def applicant_csvs(draw) -> bytes:
    rows = [list(row) for row in _CSV_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["cell", "cell", "header", "drop column", "swap columns",
                                    "row length", "blank row"]))
        row = draw(st.sampled_from(rows[1:] or rows))
        column = draw(st.integers(0, len(CSV_COLUMNS) - 1))
        if how == "cell" and column < len(row):
            row[column] = draw(_CSV_CELLS)
        elif how == "header" and column < len(rows[0]):
            rows[0][column] = draw(_CSV_NAMES)
        elif how == "drop column":
            for each in rows:
                del each[column:column + 1]
        elif how == "swap columns":
            other = draw(st.integers(0, len(CSV_COLUMNS) - 1))
            for each in rows:
                if max(column, other) < len(each):
                    each[column], each[other] = each[other], each[column]
        elif how == "row length":
            del row[draw(st.integers(0, len(row))):]
            row += draw(st.lists(_CSV_CELLS, max_size=2))
        elif how == "blank row":
            rows.insert(draw(st.integers(1, len(rows))), [""] * draw(st.integers(0, 20)))
    out = io.StringIO()
    csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
               lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    data = out.getvalue().encode("utf-8", "surrogatepass")
    boms = [b"", b"", b"", b"", b"\xef\xbb\xbf", b"\xef\xbb\xbf" * 2, b"\xff\xfe"]
    data = draw(st.sampled_from(boms)) + data
    snippets = st.sampled_from([b'"', b",", b"\n", b"\r", b"\x00", b"\xff", b"\xef\xbb\xbf"])
    return _spliced(draw, data, snippets)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(data=applicant_csvs(), mode=st.sampled_from(["average", "sum", "max"]),
       fmt=st.sampled_from(["text", "json"]))
def test_mutated_applicant_csv_keeps_the_error_contract(base, data, mode, fmt):
    path = f"{base}/applicants.csv"
    with open(path, "wb") as handle:
        handle.write(data)
    assert_error_contract(["trust", path, "--mode", mode, "--format", fmt])


_SCANS = [(FIXTURES / name).read_text().partition("\n")[2]  # the root element on
          for name in ("scan_1host_1port.xml", "scan_1host_3ports.xml", "scan_0hosts.xml")]
_TAGS = st.sampled_from(["nmaprun", "host", "status", "ports", "port", "state", "address",
                         "hosts", "foo", "Host", "ns:host", "{urn:x}host"])
_ATTRIBUTES = st.tuples(
    st.sampled_from(["state", "xmloutputversion", "portid"]),
    st.sampled_from(["up", "down", "open", "closed", "", "UP", "open ", "1.05", "1.", "2.0",
                     "1.05\n", "\x7f"]),
)
_ENCODINGS = st.sampled_from([
    "UTF-8", "utf-8", "UTF-8e", "rot13", "shift_jis", "utf-16", "UTF-16LE", "latin-1",
    "ascii", "utf-32", "", "bogus", "base64", "hex", "idna", "zlib", "cp1252", "utf-7",
])


@st.composite
def scan_documents(draw) -> bytes:
    root = ElementTree.fromstring(draw(st.sampled_from(_SCANS)))
    for _ in range(draw(st.integers(1, 3))):
        parents = {child: parent for parent in root.iter() for child in parent}
        element = draw(st.sampled_from(list(root.iter())))
        how = draw(st.sampled_from(["rename", "attribute", "move", "copy", "delete"]))
        if how == "rename":
            element.tag = draw(_TAGS)
        elif how == "attribute":
            element.set(*draw(_ATTRIBUTES))
        elif element is not root:
            inside = set(element.iter())
            outside = [e for e in root.iter() if e not in inside]
            if how == "move":
                parents[element].remove(element)
                draw(st.sampled_from(outside)).append(element)
            elif how == "copy":
                draw(st.sampled_from(outside)).append(copy.deepcopy(element))
            else:
                parents[element].remove(element)
    text = ElementTree.tostring(root, encoding="unicode")
    encoding = draw(_ENCODINGS)
    if draw(st.booleans()):
        text = f'<?xml version="1.0" encoding="{encoding}"?>\n{text}'
    try:
        data = text.encode(encoding)
    except (LookupError, ValueError):
        data = text.encode("utf-8")
    snippets = st.sampled_from([b"<", b">", b"&", b"&bogus;", b"&#0;", b"&#xD800;",
                                b"<!DOCTYPE nmaprun>", b"]]>", b"<![CDATA[x]]>",
                                b"<!-- c -->", b"<?pi x?>", b"\x00", b"\xef\xbb\xbf", b"\xff"])
    return _spliced(draw, data, snippets)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(data=scan_documents(), merge=st.booleans())
def test_mutated_scan_keeps_the_error_contract(base, data, merge):
    path = f"{base}/scan.xml"
    with open(path, "wb") as handle:
        handle.write(data)
    assert_error_contract(["import-nmap", path] + (["--merge", _TOY] if merge else []))
