#!/usr/bin/env python3
"""Pinned CLI stdout over a fixed, seeded corpus of command lines.

Each case is a shift document, a potential document and a command line.
Shifts are explicit-finite, full or renewal; potentials have depth 1 to 3
and clean, tie-heavy, noisy or 1e12-offset table values; the commands are
``optimize``, ``barrier`` as JSON and as CSV, ``converge`` as JSON (with
``--letters`` and ``--scan-to``) and as CSV, ``shift check``, and
``subaction verify`` and ``compare`` on a barrier CSV printed first with
``--out``.  After the seeded cases comes a near-limit family: the three
command lines whose letter bound once overflowed the float range, then
seeded cases whose table values lie in ±[1e307, 1.7e308] or are 0 or -1.
A case runs in-process through ``peierls.cli.run`` in a fresh directory that
holds its documents and its stage cache, so no case depends on another.

``tests/stdout_corpus.txt`` holds one line per case: the case id, the exit
code of its last command, and the CRC-32 and length of the stdout of all its
commands.  Stderr is not pinned: its messages carry file paths.  Every case
is pinned, and the file holds on each Python of CI's matrix (3.10 to 3.13):
the library adds floats in one left-to-right order, never with the built-in
``sum``, which is compensated from 3.12 on.  Regenerate the file only in a
change that means to change bytes, and name each case that changed.

    PYTHONPATH=src python scripts/stdout_corpus.py           # compare, exit 1 on a mismatch
    PYTHONPATH=src python scripts/stdout_corpus.py --write   # regenerate the file
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import zlib
from pathlib import Path
from typing import NamedTuple

import peierls.cli as cli

PINNED = Path(__file__).resolve().parent.parent / "tests" / "stdout_corpus.txt"
SEED = 27
COUNT = 1000
NEAR_LIMIT = 100  # cases of the near-limit family, its three fixed command lines included
COMMANDS = (
    "shift", "optimize", "barrier", "barrier-csv", "converge", "converge-csv", "verify", "compare"
)
BARRIER_CSV = ["barrier", "--format", "csv", "--out", "values.csv"]


class Case(NamedTuple):
    id: str
    shift: dict
    potential: dict
    commands: list[list[str]]

    def describe(self) -> str:
        """The documents and command lines, enough to replay the case by hand."""
        lines = [f"shift.json: {json.dumps(self.shift)}", f"pot.json: {json.dumps(self.potential)}"]
        return "\n".join(lines + ["peierls " + " ".join(argv) for argv in self.commands])


def _shift(rng: random.Random) -> dict:
    kind = rng.choice(["explicit-finite", "full", "renewal"])
    if kind == "renewal":
        return {"kind": kind, "renewal": {"a": rng.randint(1, 3), "b": rng.randint(0, 2)}}
    n = rng.randint(1, 4 if kind == "full" else 6)
    if kind == "full":
        return {"kind": kind, "alphabet_size": n}
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2 * n))}
    if rng.randrange(5):  # mostly through a cycle over every letter, so none is stranded
        pairs |= {(i, (i + 1) % n) for i in range(n)}
    return {"kind": kind, "alphabet_size": n, "edges": sorted(map(list, pairs))}


def _successors(shift: dict, letter: int) -> list[int]:
    if shift["kind"] == "explicit-finite":
        return [j for i, j in shift["edges"] if i == letter]
    if shift["kind"] == "full":
        return list(range(shift["alphabet_size"]))
    a, b = shift["renewal"]["a"], shift["renewal"]["b"]
    if letter:
        return [letter - 1]
    return [0] + [j for j in range(1, 8) if j >= a + b and (j - b) % a == 0]


def _value(rng: random.Random, values: str) -> float:
    if values == "clean":
        return rng.choice([0.0, -1.0, 1.0, 0.5, -0.5, 2.0, -2.25])
    if values == "tie-heavy":  # -1, 0 or 0 plus noise below the 1e-9 tolerance
        return rng.choice([-1.0, 0.0, 0.0]) + rng.uniform(-3e-10, 3e-10)
    if values == "noisy":
        return rng.uniform(-2.0, 2.0)
    if values == "near-limit":  # ±[1e307, 1.7e308], mixed with 0 and -1
        if rng.randrange(3):
            return rng.choice([1.0, -1.0]) * rng.uniform(1e307, 1.7e308)
        return rng.choice([0.0, -1.0])
    return rng.randint(-7, 7) / 7 + 1e12


def _potential(rng: random.Random, shift: dict, values: str | None) -> dict:
    """Table words are walks of the shift from a letter below 6; ``values`` names their family,
    or None to draw one."""
    depth = rng.randint(1, 3)
    values = values or rng.choice(["clean", "tie-heavy", "noisy", "1e12-offset"])
    top = 5 if shift["kind"] == "renewal" else shift["alphabet_size"] - 1
    table = {}
    for _ in range(rng.randint(0, 10)):
        word = [rng.randint(0, top)]
        while len(word) < depth:
            word.append(rng.choice(_successors(shift, word[-1]) or [0]))
        table[tuple(word)] = _value(rng, values)
    tail = {"kind": rng.choice(["linear", "log"]), "c": rng.choice([0.5, 1, 3])}
    rows = [{"word": list(word), "value": value} for word, value in table.items()]
    return {"depth": depth, "tail": tail, "table": rows}


def _ints(rng: random.Random, low: int, high: int, least: int, most: int) -> list[int]:
    """Between ``least`` and ``most`` distinct sorted ints of low..high, as many as there are."""
    most = min(most, high + 1 - low)
    return sorted(rng.sample(range(low, high + 1), rng.randint(min(least, most), most)))


def _joined(ints: list[int]) -> str:
    return ",".join(map(str, ints))


def _case(rng: random.Random, index: int, values: str | None = None) -> Case:
    shift = _shift(rng)
    pot = _potential(rng, shift, values)
    renewal = shift["kind"] == "renewal"
    top = 8 if renewal else shift["alphabet_size"] - 1
    graph = ["--shift", "shift.json", "--potential", "pot.json"]
    if renewal or rng.randrange(2):
        graph += ["--max-letter", str(rng.randint(0, top))]
    if not rng.randrange(6):
        graph += ["--tol", rng.choice(["0", "1e-3"])]
    command = rng.choice(COMMANDS)
    if command == "shift":
        horizon = rng.choice(["1", "30"])
        commands = [["shift", "check", "--shift", "shift.json", "--horizon", horizon]]
    elif command == "optimize":
        commands = [["optimize", *graph]]
    elif command == "barrier":
        commands = [["barrier", *graph]]
    elif command == "barrier-csv":
        commands = [["barrier", *graph, "--format", "csv"]]
    elif command in ("verify", "compare"):
        check = ["--assert"] if rng.randrange(2) else []
        second = ["--values-b", "shifted.csv"] if command == "compare" else []
        argv = ["subaction", command, *graph, "--values", "values.csv", *second, *check]
        commands = [[*BARRIER_CSV, *graph], argv]
    else:
        letters = _ints(rng, 0, 4, 1, 3) if command == "converge" and rng.randrange(2) else []
        stages = _ints(rng, 1 if renewal else 0, top + 2, 1 + bool(letters), 3)
        argv = ["converge", *graph, "--stages", _joined(stages)]
        if command == "converge-csv":
            argv += ["--format", "csv"]
        else:
            if letters:  # stabilization reads two stages or more
                argv += ["--letters", _joined(letters)]
            if rng.randrange(2):
                argv += ["--scan-to", str(rng.randint(0, stages[-1] + 1))]
            if rng.randrange(3) == 0:
                argv += ["--assert"]
        commands = [argv + (["--no-cache"] if rng.randrange(2) else [])]
    family = "" if values is None else f"{values}-"
    return Case(f"{index:04d}-{family}{shift['kind']}-{command}", shift, pot, commands)


def _near_limit_fixed() -> list[Case]:
    """``barrier`` with a linear and a log tail, and ``converge``, on a two-letter ring whose
    letter bound -threshold / c passes the float range."""
    ring = {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 1], [1, 0]]}
    table = [{"word": [0], "value": -4.49423283715579e307}]
    barrier = ["barrier", "--shift", "shift.json", "--potential", "pot.json"]
    converge = ["converge", *barrier[1:], "--stages", "0,1", "--letters", "0", "--no-cache"]
    lines = [("linear", barrier), ("log", barrier), ("linear", converge)]
    return [
        Case(
            f"{COUNT + i:04d}-near-limit-explicit-finite-{argv[0]}",
            ring,
            {"depth": 1, "tail": {"kind": kind, "c": 0.5}, "table": table},
            [argv],
        )
        for i, (kind, argv) in enumerate(lines)
    ]


def cases() -> list[Case]:
    """The seeded cases, then the near-limit family from a seed of its own, so the seeded
    cases stay as they were."""
    rng = random.Random(SEED)
    seeded = [_case(rng, index) for index in range(COUNT)]
    fixed = _near_limit_fixed()
    rng = random.Random(SEED + 1)
    near = range(COUNT + len(fixed), COUNT + NEAR_LIMIT)
    return seeded + fixed + [_case(rng, index, "near-limit") for index in near]


def _shifted(values_csv: str, offsets: list[float]) -> str:
    rows = enumerate(line.split(",") for line in values_csv.splitlines())
    shifted = (f"{key},{float(value) + offsets[i % len(offsets)]!r}\n" for i, (key, value) in rows)
    return "".join(shifted)


def run_case(case: Case) -> tuple[int, str]:
    """The exit code of the case's last command and the stdout of all its commands,
    each run by ``cli.run`` in a fresh directory that is also the stage cache."""
    out, err = io.StringIO(), io.StringIO()
    home, cache = os.getcwd(), os.environ.get("PEIERLS_CACHE_DIR")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ["PEIERLS_CACHE_DIR"] = tmp
        try:
            Path("shift.json").write_text(json.dumps(case.shift), encoding="utf-8")
            Path("pot.json").write_text(json.dumps(case.potential), encoding="utf-8")
            for argv in case.commands:
                if argv[0] == "subaction":  # the printed barrier, or two rows when none printed
                    if not Path("values.csv").exists():
                        Path("values.csv").write_text("0,0.0\n1,-1.0\n", encoding="utf-8")
                    printed = Path("values.csv").read_text(encoding="utf-8")
                    offsets = [0.5] if int(case.id[:4]) % 2 else [0.5, -0.25]
                    Path("shifted.csv").write_text(_shifted(printed, offsets), encoding="utf-8")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.run(argv)
                    except SystemExit as exc:
                        code = exc.code
        finally:
            os.chdir(home)
            if cache is None:
                os.environ.pop("PEIERLS_CACHE_DIR", None)
            else:
                os.environ["PEIERLS_CACHE_DIR"] = cache
    return code, out.getvalue()


def pin(case: Case) -> str:
    """The case's line of the pinned file: id, exit code, CRC-32 and length of stdout."""
    code, stdout = run_case(case)
    data = stdout.encode("utf-8")
    return f"{case.id} {code} {zlib.crc32(data):08x} {len(data)}"


def mismatches() -> list[str]:
    """A report for each case whose line differs from the pinned file."""
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    expected = dict(line.split(" ", 1) for line in lines)
    found = []
    for case in cases():
        line = pin(case)
        if expected.get(case.id) != line.split(" ", 1)[1]:
            report = f"{case.id}: pinned {expected.get(case.id)}, got {line}"
            found.append(f"{report}\n{case.describe()}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the pinned file")
    args = parser.parse_args(argv)
    if args.write:
        PINNED.write_text("".join(pin(case) + "\n" for case in cases()), encoding="utf-8")
        return 0
    found = mismatches()
    print("\n\n".join(found) or f"all {COUNT + NEAR_LIMIT} cases match {PINNED.name}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
