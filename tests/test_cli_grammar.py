"""The command line table against ``oracle_parser``, the hand-written argparse tree.

``cli._read`` parses well-formed lines from the table and ``cli._build_parser``
builds argparse from it for everything else.  Help text must match the oracle
byte for byte; a line the reader accepts must give the oracle's namespace, and
a line it declines must fail or succeed through ``run`` exactly as the oracle.
"""

import argparse
import contextlib
import io
import math
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import peierls.cli as cli
from oracles import oracle_parser

PATHS = [
    ("shift", "check"),
    ("optimize",),
    ("barrier",),
    ("subaction", "verify"),
    ("subaction", "compare"),
    ("converge",),
    ("demo", "renewal"),
]
GROUPS = [(), ("shift",), ("subaction",), ("demo",)]
COLUMNS_80 = {"COLUMNS": "80"}  # argparse wraps help to the terminal width

with mock.patch.dict(os.environ, COLUMNS_80):
    ORACLE = oracle_parser()


def _node(parser: argparse.ArgumentParser, path: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of a command path, found through each level's subparsers action."""
    for word in path:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[word]
    return parser


@pytest.mark.parametrize("path", GROUPS + PATHS, ids=lambda p: " ".join(p) or "top")
def test_help_matches_the_oracle_byte_for_byte(monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _node(oracle_parser(), path).format_help()
    assert _node(cli._build_parser(), path).format_help() == expected


def _options(path: tuple[str, ...]) -> list[argparse.Action]:
    return [a for a in _node(ORACLE, path)._actions if a.option_strings and a.dest != "help"]


ODD_INTS = st.sampled_from(["0", "7", " 7", "1_0", "+3", "٣"])
VALUES = {
    int: st.integers(0, 10**4).map(str) | ODD_INTS,
    float: st.sampled_from(["0", "1e-9", "0.5", "1e3", "1e400", "inf", "nan", "+2"]),
    cli._int_list: st.lists(st.integers(0, 99), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    None: st.text(alphabet="ab./_ 0", max_size=6),
}
BAD_VALUES = st.sampled_from(["x", "1.5", "", "1,,2", "nan", "-1", "-", "--", "xml", "1e5"])
PERTURBATIONS = (
    "abbreviate", "equals", "repeat", "negative", "double-dash", "drop", "bad-value",
    "no-value", "unknown-flag", "help", "short-path", "unknown-command",
)


def _value(draw, action: argparse.Action) -> str:
    if action.choices:
        return draw(st.sampled_from(list(action.choices)))
    return draw(VALUES[action.type])


@st.composite
def command_lines(draw) -> list[str]:
    """A line drawn from the grammar, then up to three perturbations of it."""
    path = draw(st.sampled_from(PATHS))
    actions = draw(st.permutations([a for a in _options(path) if a.required or draw(st.booleans())]))
    groups = [[a.option_strings[0]] + ([] if a.nargs == 0 else [_value(draw, a)]) for a in actions]
    words = list(path)
    for kind in draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=3)):
        at = draw(st.integers(0, len(groups)))
        target = groups[at] if at < len(groups) else None
        if kind == "abbreviate" and target and len(target[0]) > 3:
            flag = target[0]
            target[0] = flag[: draw(st.integers(3, len(flag) - 1))]
        elif kind == "equals" and target and len(target) == 2:
            groups[at] = ["=".join(target)]
        elif kind == "repeat" and target:
            groups.insert(draw(st.integers(0, len(groups))), list(target))
        elif kind == "negative" and target and len(target) == 2:
            target[1] = draw(st.sampled_from(["-1", "-0.5", "-1,2"]))
        elif kind == "double-dash":
            groups.insert(at, ["--"])
        elif kind == "drop" and target:
            del groups[at]
        elif kind == "bad-value" and target and len(target) == 2:
            target[1] = draw(BAD_VALUES)
        elif kind == "no-value" and target and len(target) == 2:
            del target[1]
        elif kind == "unknown-flag":
            groups.insert(at, draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["-x"]])))
        elif kind == "help":
            groups.insert(at, [draw(st.sampled_from(["-h", "--help"]))])
        elif kind == "short-path":
            words = words[:-1]
        elif kind == "unknown-command":
            words.insert(draw(st.integers(0, len(words))), "bogus")
    return words + [token for group in groups for token in group]


def _same(got: dict, want: dict) -> bool:
    def equal(x, y):
        nan = isinstance(x, float) and math.isnan(x) and math.isnan(y)
        return type(x) is type(y) and (x == y or nan)

    return got.keys() == want.keys() and all(equal(got[k], want[k]) for k in got)


def _outcome(parse, argv: list[str]):
    """("ok", namespace dict) or ("exit", code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(parse(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_declines_or_agrees_with_the_oracle(argv):
    with mock.patch.dict(os.environ, COLUMNS_80):
        expected = _outcome(ORACLE.parse_args, argv)
        read = cli._read(argv)
        if read is not None:
            assert expected[0] == "ok", argv
            want = {k: v for k, v in expected[1].items() if k not in ("command", "action")}
            assert _same(vars(read), want), argv
        elif expected[0] == "ok":
            # run would go on to the handler; the namespace it reaches must be the oracle's
            assert _same(vars(cli._build_parser().parse_args(argv)), expected[1]), argv
        else:
            assert _outcome(cli.run, argv) == expected, argv


def test_reader_takes_well_formed_lines_of_every_command():
    io_flags = ["--shift", "s.json", "--potential", "p.json", "--max-letter", "4"]
    lines = [
        ["shift", "check", "--shift", "s.json", "--horizon", "5"],
        ["optimize", *io_flags, "--tol", "1e-6"],
        ["barrier", *io_flags, "--format", "csv", "--out", "v.csv"],
        ["subaction", "verify", *io_flags, "--values", "v.csv", "--assert"],
        ["subaction", "compare", *io_flags, "--values", "v.csv", "--values-b", "w.csv"],
        ["converge", *io_flags, "--stages", "6,12", "--letters", "1", "--no-cache"],
        ["demo", "renewal", "--a", "1", "--b", "1", "--stages", "6", "--scan-to", "9"],
    ]
    for argv in lines:
        read = cli._read(argv)
        assert read is not None, argv
        want = vars(ORACLE.parse_args(argv))
        del want["command"]
        want.pop("action", None)
        assert vars(read) == want


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["barrier", "--help"],
        ["shift"],
        ["barrier", "--shift", "s.json"],
        ["barrier", "--shift", "s.json", "--potential", "p.json", "--max-letter", "-1"],
        ["barrier", "--shift=s.json", "--potential", "p.json"],
        ["barrier", "--sh", "s.json", "--potential", "p.json"],
        ["barrier", "--shift", "s.json", "--shift", "s.json", "--potential", "p.json"],
        ["barrier", "--shift", "s.json", "--potential", "p.json", "--format", "xml"],
        ["barrier", "--shift", "s.json", "--potential", "p.json", "--max-letter", "x"],
        ["barrier", "--shift", "s.json", "--potential", "p.json", "--"],
        ["converge", "--shift", "s.json", "--potential", "p.json", "--stages", "1,x"],
        ["optimize", "--shift", "s.json", "--potential", "p.json", "--assert"],
    ],
)
def test_reader_declines_malformed_lines(argv):
    assert cli._read(argv) is None
