"""``cli.run`` on drawn inputs and command lines: it exits 0, 1 or 2, nothing but
``SystemExit`` escapes it, every JSON report it prints is strict JSON (no Infinity
or NaN), and a barrier it prints is a calibrated subaction.

Shifts are renewal, full or explicit-finite; potentials have depth 1 to 3 and
values that are clean, tie-heavy (-1, 0 or 0 plus noise below the tolerance),
large, near the float limit, or JSON integers of up to 400 digits, as tail
scales can be; every command path runs.  Alphabets, letters and stage lists
stay small so the property takes seconds.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

import peierls.cli as cli
from peierls import (
    _OWNER,
    admissible,
    build_memory_graph,
    optimize,
    parse_potential,
    parse_shift_spec,
    verify_subaction,
)

LETTERS = 6  # table words use letters below this
FILES = ("shift.json", "pot.json", "values.csv", "shifted.csv")
# JSON integers of up to 400 digits: past 308 digits none fits a float
HUGE = st.integers(0, 400).flatmap(lambda digits: st.integers(1 - 10**digits, 10**digits - 1))
VALUES = {
    "clean": st.sampled_from([0.0, -1.0, 1.0, 0.5, -0.5, 2.0, -2.25]),
    # ROADMAP item 1's tie-heavy family: -1, 0 or 0 plus noise below the 1e-9 tolerance
    "tie-heavy": st.builds(
        float.__add__, st.sampled_from([-1.0, 0.0, 0.0]), st.floats(-3e-10, 3e-10)
    ),
    "large": st.integers(-7, 7).map(lambda k: k / 7 + 1e12) | st.floats(-1e14, 1e14),
    "huge": HUGE,
    # ROADMAP item 13's near-limit family: ±[1e307, 1.7e308], mixed with 0 and -1
    "near-limit": st.builds(
        float.__mul__, st.sampled_from([1.0, -1.0]), st.floats(1e307, 1.7e308)
    )
    | st.sampled_from([0.0, -1.0]),
}
PATHS = ("shift", "optimize", "barrier", "verify", "compare", "converge", "demo")


@st.composite
def shifts(draw) -> dict:
    kind = draw(st.sampled_from(["renewal", "full", "explicit-finite"]))
    if kind == "renewal":
        rule = {"a": draw(st.integers(1, 3)), "b": draw(st.integers(0, 2))}
        return {"kind": kind, "renewal": rule}
    n = draw(st.integers(1, 4))
    if kind == "full":
        return {"kind": kind, "alphabet_size": n}
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1))
    if draw(st.integers(0, 4)):  # mostly through a cycle over every letter, so none is stranded
        pairs |= {(i, (i + 1) % n) for i in range(n)}
    return {"kind": kind, "alphabet_size": n, "edges": sorted(map(list, pairs))}


def _next_letters(shift: dict, letter: int) -> list[int]:
    if shift["kind"] == "explicit-finite":
        return [j for i, j in shift["edges"] if i == letter]
    spec = parse_shift_spec(json.dumps(shift))
    return [j for j in range(LETTERS) if admissible(spec, letter, j)]


@st.composite
def potentials(draw, shift: dict) -> dict:
    """Table words are walks of the shift, now and then from a letter it does not have."""
    depth = draw(st.integers(1, 3))
    values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    top = LETTERS - 1 if shift["kind"] == "renewal" else shift["alphabet_size"] - 1
    table = {}
    for _ in range(draw(st.integers(0, 12))):
        word = [draw(st.integers(0, top)) if draw(st.integers(0, 9)) else LETTERS]
        while len(word) < depth:
            word.append(draw(st.sampled_from(_next_letters(shift, word[-1]) or [0])))
        table[tuple(word)] = draw(values)
    tail = {"kind": draw(st.sampled_from(["linear", "log"]))}
    tail["c"] = draw(st.sampled_from([0.5, 1, 3]) if draw(st.integers(0, 3)) else HUGE)
    rows = [{"word": list(word), "value": value} for word, value in table.items()]
    return {"depth": depth, "tail": tail, "table": rows}


def _ints(draw, low: int, high: int, min_size: int) -> str:
    drawn = draw(st.sets(st.integers(low, high), min_size=min_size, max_size=3))
    return ",".join(map(str, sorted(drawn)))


@st.composite
def cases(draw) -> tuple[dict, dict, list[str], list[str]]:
    """Inputs, a well-formed line of one of the seven command paths and the options
    that build its graph (for the barrier that a values table comes from)."""
    shift = draw(shifts())
    pot = draw(potentials(shift))
    path = draw(st.sampled_from(PATHS))

    def either(*options):
        return draw(st.sampled_from(options))

    if path == "shift":
        argv = ["shift", "check", "--shift", "shift.json", "--horizon", either("1", "30")]
        return shift, pot, argv, []
    if path == "demo":
        argv = ["demo", "renewal", "--a", either("1", "2", "3"), "--b", either("0", "1", "2")]
        argv += ["--stages", _ints(draw, 1, 12, 1), "--scan-to", str(draw(st.integers(1, 12)))]
        return shift, pot, argv + either([], ["--no-cache"]), []
    graph = ["--shift", "shift.json", "--potential", "pot.json"]
    top = 8 if shift["kind"] == "renewal" else shift["alphabet_size"] - 1  # --max-letter
    letter = either(None, *range(top + 1))
    graph += [] if letter is None else ["--max-letter", str(letter)]
    graph += either([], ["--tol", "0"], ["--tol", "1e-3"])
    check = either([], ["--assert"])
    if path == "optimize":
        argv = ["optimize", *graph]
    elif path == "barrier":
        argv = ["barrier", *graph, "--format", either("json", "csv")]
    elif path == "verify":
        argv = ["subaction", "verify", *graph, "--values", "values.csv", *check]
    elif path == "compare":
        argv = ["subaction", "compare", *graph, "--values", "values.csv"]
        argv += ["--values-b", "shifted.csv", *check]
    else:  # converge: with --no-cache, or the stage cache the conftest points at
        stages = _ints(draw, 1, 12, 1) if shift["kind"] == "renewal" else _ints(draw, 0, top, 1)
        argv = ["converge", *graph, "--stages", stages]
        argv += ["--letters", _ints(draw, 0, 4, 0), "--format", either("json", "csv")]
        scan = draw(st.none() | st.integers(0, 12))
        argv += ([] if scan is None else ["--scan-to", str(scan)]) + check
        argv += either([], ["--no-cache"])
    return shift, pot, argv, graph


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``cli.run`` and its stdout; a ``SystemExit`` gives its code."""
    for name in _OWNER:  # unbound, as a fresh import leaves them: each path loads its own
        vars(cli).pop(name, None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    return code, out.getvalue()


def _reject_constant(constant: str):
    raise AssertionError(f"{constant} is not JSON")


def _barrier_values(argv: list[str], stdout: str) -> dict:
    if "csv" in argv:
        rows = (line.split(",") for line in stdout.splitlines())
        return {cli._parse_word_key(key): float(value) for key, value in rows}
    values = json.loads(stdout)["values"]
    return {cli._parse_word_key(key): value for key, value in values.items()}


def _check_barrier(argv: list[str], shift: dict, pot: dict, stdout: str) -> None:
    """The printed values pass ``verify_subaction`` on the graph the line builds."""
    args = cli._read(argv)
    spec = parse_shift_spec(json.dumps(shift))
    finite = cli._finite_for(args, spec)
    graph = optimize(build_memory_graph(finite, parse_potential(json.dumps(pot))), args.tol)
    report = verify_subaction(graph, _barrier_values(argv, stdout))
    assert report.is_subaction and report.is_calibrated and report.supp_in_contact, argv


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(cases(), st.lists(VALUES["clean"], min_size=1, max_size=4))
def test_run_exits_0_1_or_2_and_a_printed_barrier_is_calibrated(case, offsets):
    shift, pot, argv, graph = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp, name)) for name in FILES}
        Path(files["shift.json"]).write_text(json.dumps(shift), encoding="utf-8")
        Path(files["pot.json"]).write_text(json.dumps(pot), encoding="utf-8")
        if argv[0] == "subaction":
            # the barrier when the line has one, else rows of the first letters; then
            # the same rows plus offsets, constant when one was drawn
            barrier = ["barrier", *graph, "--format", "csv", "--out", "values.csv"]
            if _run([files.get(a, a) for a in barrier])[0] != 0:
                Path(files["values.csv"]).write_text("0,0.0\n1,-1.0\n", encoding="utf-8")
            rows = Path(files["values.csv"]).read_text(encoding="utf-8").splitlines()
            shifted = [
                f"{key},{float(value) + offsets[i % len(offsets)]!r}"
                for i, (key, value) in enumerate(row.split(",") for row in rows)
            ]
            Path(files["shifted.csv"]).write_text("\n".join(shifted) + "\n", encoding="utf-8")
        argv = [files.get(a, a) for a in argv]
        code, stdout = _run(argv)
        event(f"{' '.join(a for a in argv[:2] if not a.startswith('-'))} exits {code}")
        if stdout and "csv" not in argv:
            json.loads(stdout, parse_constant=_reject_constant)
        if argv[0] == "barrier" and code == 0:
            _check_barrier(argv, shift, pot, stdout)
