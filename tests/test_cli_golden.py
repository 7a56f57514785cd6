"""Byte-exact CLI output on a fixed command matrix.

Each case runs one or more commands in a fresh directory holding the input
files below and compares the concatenated stdout with
``tests/golden/<case>.out``.  A case that writes a report with ``--out``
also compares that file with ``tests/golden/<case>.<name>``.  Stderr is not
pinned: its messages carry file paths.
"""

import json
from pathlib import Path

import pytest

from peierls.cli import run

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "renewal.json": json.dumps({"kind": "renewal", "renewal": {"a": 2, "b": 0}}),
    "renewal_pot.json": json.dumps(
        {
            "depth": 1,
            "tail": {"kind": "linear", "c": 1},
            "table": [{"word": [0], "value": 0.0}],
        }
    ),
    "gm.json": json.dumps(
        {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 0], [0, 1], [1, 0]]}
    ),
    "gm_pot.json": json.dumps({"depth": 1, "tail": {"kind": "linear", "c": 1}}),
    "full.json": json.dumps({"kind": "full", "alphabet_size": 3}),
    "full_pot.json": json.dumps(
        {
            "depth": 3,
            "tail": {"kind": "linear", "c": 0.5},
            "table": [
                {"word": [0, 1, 2], "value": 2.0},
                {"word": [1, 2, 0], "value": -0.5},
                {"word": [2, 0, 1], "value": 0.25},
                {"word": [1, 1, 1], "value": 0.5},
                {"word": [0, 2, 1], "value": 1.5},
            ],
        }
    ),
    "shifted.csv": "".join(f"{j},{1.5 - j}\n" for j in range(7)),
}

RENEWAL = ["--shift", "renewal.json", "--potential", "renewal_pot.json"]
GM = ["--shift", "gm.json", "--potential", "gm_pot.json"]
BARRIER_CSV = ["barrier", *RENEWAL, "--max-letter", "6", "--format", "csv", "--out", "values.csv"]
CONVERGE_CACHED = ["converge", *RENEWAL, "--stages", "6,12", "--scan-to", "11"]

# (case, commands, file written by --out or None)
CASES = [
    ("shift_check_renewal", [["shift", "check", "--shift", "renewal.json"]], None),
    ("shift_check_golden_mean", [["shift", "check", "--shift", "gm.json"]], None),
    (
        "shift_check_horizon_1",
        [["shift", "check", "--shift", "renewal.json", "--horizon", "1"]],
        None,
    ),
    ("optimize_golden_mean", [["optimize", *GM]], None),
    (
        "optimize_full_depth_3",
        [["optimize", "--shift", "full.json", "--potential", "full_pot.json"]],
        None,
    ),
    ("barrier_json", [["barrier", *RENEWAL, "--max-letter", "6"]], None),
    ("barrier_csv", [BARRIER_CSV], "values.csv"),
    (
        "barrier_csv_full_depth_3",
        [["barrier", "--shift", "full.json", "--potential", "full_pot.json", "--format", "csv"]],
        None,
    ),
    (
        "subaction_verify",
        [
            BARRIER_CSV,
            ["subaction", "verify", *RENEWAL, "--max-letter", "6", "--values", "values.csv", "--assert"],
        ],
        None,
    ),
    (
        "subaction_compare",
        [
            BARRIER_CSV,
            [
                "subaction", "compare", *RENEWAL, "--max-letter", "6",
                "--values", "values.csv", "--values-b", "shifted.csv",
            ],
        ],
        None,
    ),
    (
        "converge_letters_scan",
        [["converge", *RENEWAL, "--stages", "6,12,24", "--letters", "1,3,5", "--scan-to", "23"]],
        None,
    ),
    (
        "converge_csv_no_cache",
        [["converge", *RENEWAL, "--stages", "6,12", "--format", "csv", "--no-cache"]],
        None,
    ),
    ("converge_cached_twice", [CONVERGE_CACHED, CONVERGE_CACHED], None),
    ("demo_renewal_2_0", [["demo", "renewal", "--a", "2", "--b", "0"]], None),
    ("demo_renewal_1_1", [["demo", "renewal", "--a", "1", "--b", "1"]], None),
]


def run_case(commands, directory: Path, capsys) -> str:
    """Run ``commands`` in ``directory`` and return their joined stdout."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    out = []
    for argv in commands:
        assert run(argv) == 0, argv
        out.append(capsys.readouterr().out)
    return "".join(out)


@pytest.mark.parametrize("case, commands, written", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_pinned(case, commands, written, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PEIERLS_CACHE_DIR", str(tmp_path))
    stdout = run_case(commands, tmp_path, capsys)
    assert stdout == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    if written is not None:
        expected = (GOLDEN / f"{case}.{written}").read_text(encoding="utf-8")
        assert (tmp_path / written).read_text(encoding="utf-8") == expected
