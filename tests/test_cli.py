import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from peierls.cli import run

from oracles import random_graph

GM_SHIFT = json.dumps(
    {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 0], [0, 1], [1, 0]]}
)
GM_POT = json.dumps({"depth": 1, "tail": {"kind": "linear", "c": 1}})
RENEWAL_SHIFT = json.dumps({"kind": "renewal", "renewal": {"a": 2, "b": 0}})
RENEWAL_POT = json.dumps(
    {
        "depth": 1,
        "tail": {"kind": "linear", "c": 1},
        "table": [{"word": [0], "value": 0.0}],
    }
)


@pytest.fixture
def gm_files(tmp_path):
    shift = tmp_path / "shift.json"
    pot = tmp_path / "pot.json"
    shift.write_text(GM_SHIFT, encoding="utf-8")
    pot.write_text(GM_POT, encoding="utf-8")
    return str(shift), str(pot)


@pytest.fixture
def renewal_files(tmp_path):
    shift = tmp_path / "rshift.json"
    pot = tmp_path / "rpot.json"
    shift.write_text(RENEWAL_SHIFT, encoding="utf-8")
    pot.write_text(RENEWAL_POT, encoding="utf-8")
    return str(shift), str(pot)


def test_optimize_payload(gm_files, capsys):
    shift, pot = gm_files
    assert run(["optimize", "--shift", shift, "--potential", pot]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "schema": 1,
        "m": 0.0,
        "cycle": [[0]],
        "critical_class_unique": True,
    }


def test_barrier_csv_golden_mean(gm_files, capsys):
    shift, pot = gm_files
    assert run(["barrier", "--shift", shift, "--potential", pot, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "0,0.0\n1,0.0\n"


def test_barrier_json_includes_bounds_and_cutoff(renewal_files, capsys):
    shift, pot = renewal_files
    code = run(
        ["barrier", "--shift", shift, "--potential", pot, "--max-letter", "6"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["m"] == 0.0
    assert payload["base"] == [0]
    assert payload["values"]["5"] == -6.0
    assert [5, 25.0] in payload["bounds"]["per_letter"]
    assert payload["cutoff"]["letter"] == 0
    assert payload["cutoff"]["confinement_bound"] == 1483


def test_barrier_json_survives_a_failing_cutoff(renewal_files, capsys):
    # at max-letter 64 the stage-one cutoff outgrows the stage-two budget
    shift, pot = renewal_files
    code = run(
        ["barrier", "--shift", shift, "--potential", pot, "--max-letter", "64"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"]["63"] == -64.0
    assert [63, 3969.0] in payload["bounds"]["per_letter"]
    assert payload["cutoff"] == {
        "letter": 0,
        "error": "stage-two alphabet for letter 0 needs letters up to 4097, "
        "beyond the budget 4096",
    }


def _log_tail_pot(tmp_path, value):
    path = tmp_path / "log_pot.json"
    table = [{"word": [0], "value": value}]
    path.write_text(json.dumps({"depth": 1, "tail": {"kind": "log", "c": 1}, "table": table}))
    return str(path)


def test_barrier_json_survives_a_cutoff_too_long_to_print(renewal_files, tmp_path, capsys):
    # the log tail puts the confinement bound past the int-to-text digit limit
    shift, _ = renewal_files
    pot = _log_tail_pot(tmp_path, -7.5)
    assert run(["barrier", "--shift", shift, "--potential", pot, "--max-letter", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == {"0": 0.0}
    assert payload["bounds"]["low_letter_cutoff"] == 1807
    assert payload["cutoff"] == {
        "letter": 0,
        "error": "confinement bound for letter 0 has 5893 digits, "
        "too many to write as decimal text",
    }


def test_barrier_json_prints_a_long_cutoff_below_the_limit(renewal_files, tmp_path, capsys):
    shift, _ = renewal_files
    pot = _log_tail_pot(tmp_path, -7.0)
    assert run(["barrier", "--shift", shift, "--potential", pot, "--max-letter", "0"]) == 0
    out = capsys.readouterr().out
    bound = out.split('"confinement_bound": ')[1].split(",")[0]
    assert len(bound) == 3336 and bound.isdigit()


def test_converge_reports_a_cutoff_too_long_to_print(renewal_files, tmp_path, capsys):
    shift, _ = renewal_files
    pot = _log_tail_pot(tmp_path, -3.8)
    argv = ["converge", "--shift", shift, "--potential", pot, "--stages", "0,1", "--letters", "0"]
    assert run([*argv, "--no-cache"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["stabilization"]["entries"]
    assert entry["predicted"] is None and entry["ok"] is None
    assert entry["note"] == (
        "prediction unavailable: confinement bound for letter 0 has 6599 digits, "
        "too many to write as decimal text"
    )


def test_a_cutoff_far_past_the_digit_limit_is_reported_at_once(tmp_path):
    # renewal (20000, 0) makes stage two's core 0..20000, so the bound has
    # 86,026 digits; its exponential alone takes minutes, so the digit check comes first
    shift = tmp_path / "wide.json"
    shift.write_text(json.dumps({"kind": "renewal", "renewal": {"a": 20000, "b": 0}}))
    argv = ["barrier", "--shift", str(shift), "--potential", _log_tail_pot(tmp_path, -4.0)]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "peierls.cli", *argv, "--max-letter", "0"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["cutoff"] == {
        "letter": 0,
        "error": "confinement bound for letter 0 has 86026 digits, "
        "too many to write as decimal text",
    }


def test_barrier_json_survives_bounds_too_long_to_print(renewal_files, tmp_path):
    # the value -12000 at letter 0 puts the bound report's low-letter cutoff and the
    # cutoff's stage-one bound near exp(12000), 5,212 digits; Python builds with no
    # digit limit print them, the rest report both in place of the numbers
    shift, _ = renewal_files
    argv = ["barrier", "--shift", shift, "--potential", _log_tail_pot(tmp_path, -12000)]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "peierls.cli", *argv, "--max-letter", "0"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["values"] == {"0": 0.0}
    if 0 < getattr(sys, "get_int_max_str_digits", int)() < 5212:
        tail = " has 5212 digits, too many to write as decimal text"
        assert payload["bounds"] == {"error": "low-letter cutoff" + tail}
        assert payload["cutoff"] == {"letter": 0, "error": "excursion cutoff for letter 0" + tail}
    else:
        assert len(str(payload["bounds"]["low_letter_cutoff"])) == 5212
        assert "beyond the budget 4096" in payload["cutoff"]["error"]


def test_a_linear_tail_past_float_resolution_is_reported_at_once(tmp_path):
    # at -1e30 the tail cannot tell neighbouring letters apart, so the
    # coercive bound must not step through them one at a time
    shift = tmp_path / "shift.json"
    shift.write_text(RENEWAL_SHIFT)
    pot = tmp_path / "pot.json"
    table = [{"word": [0], "value": -1e30}]
    pot.write_text(json.dumps({"depth": 1, "tail": {"kind": "linear", "c": 1}, "table": table}))
    argv = ["barrier", "--shift", str(shift), "--potential", str(pot), "--max-letter", "4"]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "peierls.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert sorted(payload["values"]) == ["0", "1", "2", "3", "4"]
    assert payload["bounds"]["low_letter_cutoff"] == math.floor(-payload["m"])
    assert payload["cutoff"]["letter"] == 0
    assert "beyond the budget 4096" in payload["cutoff"]["error"]


def test_optimize_returns_on_a_table_near_1e12(tmp_path):
    # Howard's policy iteration cycled forever here: the graph turned into a
    # 14-letter explicit shift (its edges) and a depth-2 table (its weights)
    rng = random.Random(1835)
    weights = {e: rng.uniform(-1, 1) + 1e12 for e in random_graph(rng, rng.randint(2, 14))}
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    edges = sorted(weights)
    shift.write_text(json.dumps({"kind": "explicit-finite", "alphabet_size": 14, "edges": edges}))
    table = [{"word": list(e), "value": weights[e]} for e in edges]
    pot.write_text(json.dumps({"depth": 2, "tail": {"kind": "linear", "c": 1}, "table": table}))
    argv = ["optimize", "--shift", str(shift), "--potential", str(pot)]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "peierls.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["m"] == 1000000000000.6632
    assert payload["cycle"] == [[11]]


def test_a_positive_cycle_in_the_barrier_walk_is_an_input_error(tmp_path, capsys):
    # weights -1, 0 or 0 plus noise below the tolerance: the shortest tight cycle is
    # canonical, and the barrier walk finds a longer one whose reduced weight passes it
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randint(2, 10)
        drawn = random_graph(rng, n)
        weights = {e: rng.choice((-1.0, 0.0, 0.0)) + rng.uniform(-3e-10, 3e-10) for e in drawn}
    edges = sorted(weights)
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps({"kind": "explicit-finite", "alphabet_size": n, "edges": edges}))
    table = [{"word": list(e), "value": weights[e]} for e in edges]
    pot.write_text(json.dumps({"depth": 2, "tail": TAIL, "table": table}))
    argv = ["barrier", "--shift", str(shift), "--potential", str(pot), "--max-letter", "8"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: reduced cycle with positive weight through edge (0,) -> (1,)\n"


def _barrier_on(tmp_path, shift, table, depth, *extra):
    """``peierls barrier`` on the given shift and linear-tail table, in-process."""
    paths = tmp_path / "shift.json", tmp_path / "pot.json"
    paths[0].write_text(json.dumps(shift))
    rows = [{"word": list(word), "value": value} for word, value in table.items()]
    paths[1].write_text(json.dumps({"depth": depth, "tail": TAIL, "table": rows}))
    return run(["barrier", "--shift", str(paths[0]), "--potential", str(paths[1]), *extra])


def _strict_json(text: str):
    """``json.loads`` that rejects Infinity, -Infinity and NaN, as strict JSON readers do."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_a_cutoff_threshold_that_overflows_is_reported_in_place(tmp_path, capsys):
    # local_len * floor = 5 * -1e308 overflows to -inf, and so do the ceilings of letters
    # 3 and 4 (their connector length times m - low = 8e307); the barrier still prints
    shift = {"kind": "renewal", "renewal": {"a": 2, "b": 0}}
    assert _barrier_on(tmp_path, shift, {(0,): -1e308}, 1, "--max-letter", "4") == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["values"]["4"] == -8.000000000000001e307
    assert payload["cutoff"] == {
        "letter": 0,
        "error": "excursion cutoff for letter 0 needs a finite threshold, got -inf",
    }
    assert payload["bounds"] == {"error": "ceiling on letter 3 is not finite, got inf"}


def test_an_ambient_variation_that_overflows_is_reported_in_place(tmp_path, capsys):
    # the spread 1e308 - (-1e308) under prefix [1] is inf, and so is every threshold
    table = {(0, 0): 0.0, (0, 1): -1e308, (1, 0): 1e308, (1, 1): -1e308}
    assert _barrier_on(tmp_path, {"kind": "full", "alphabet_size": 2}, table, 2) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == {"0": 0.0, "1": -1e308}
    assert payload["bounds"] == {"error": "low-letter cutoff needs a finite threshold, got -inf"}
    assert payload["cutoff"] == {
        "letter": 0,
        "error": "excursion cutoff for letter 0 needs a finite threshold, got -inf",
    }


def _near_limit_files(tmp_path, kind):
    """A two-letter ring and a depth-1 table near the float limit with a tail of scale 0.5."""
    paths = tmp_path / "shift.json", tmp_path / "pot.json"
    shift = {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 1], [1, 0]]}
    paths[0].write_text(json.dumps(shift))
    rows = [{"word": [0], "value": -4.49423283715579e307}]
    paths[1].write_text(json.dumps({"depth": 1, "tail": {"kind": kind, "c": 0.5}, "table": rows}))
    return ["--shift", str(paths[0]), "--potential", str(paths[1])]


@pytest.mark.parametrize("kind", ["linear", "log"])
def test_a_letter_bound_past_the_float_range_is_reported_in_place(tmp_path, capsys, kind):
    # the threshold is finite, but -threshold / c is not: its floor raised OverflowError
    assert run(["barrier", *_near_limit_files(tmp_path, kind)]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["cutoff"] == {
        "letter": 0,
        "error": "excursion cutoff for letter 0 passes the float range",
    }


def test_converge_notes_a_letter_bound_past_the_float_range(tmp_path, capsys):
    argv = ["converge", *_near_limit_files(tmp_path, "linear"), "--stages", "0,1", "--letters", "0"]
    assert run([*argv, "--no-cache"]) == 0
    (entry,) = _strict_json(capsys.readouterr().out)["stabilization"]["entries"]
    note = "prediction unavailable: excursion cutoff for letter 0 passes the float range"
    assert entry["note"] == note


@pytest.mark.parametrize("extra", [[], ["--format", "csv"]])
def test_a_barrier_walk_whose_weights_overflow_says_so(tmp_path, capsys, extra):
    # m = 1e308 from the loop at 0, so the edge 0 -> 1 reduces to -1e308 - 1e308 = -inf
    table = {(0, 0): 1e308, (0, 1): -1e308, (1, 0): 0.0, (1, 1): 0.0}
    assert _barrier_on(tmp_path, {"kind": "full", "alphabet_size": 2}, table, 2, *extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: vertices unreachable from the seeds: [(1,)] "
        "(their walk weights overflow the float range to -inf)\n"
    )


def test_converge_prints_stages_whose_barrier_walk_overflows(tmp_path, capsys):
    # the walk from the loop at (0, 0), m near 1e308, reaches (1, 0) and (1, 1) only past the
    # float range; converge JSON prints no barrier value, so it walks none, and its CSV fails
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps({"kind": "full", "alphabet_size": 2}))
    table = [
        {"word": [0, 0, 0], "value": 9.906113859579084e307},
        {"word": [0, 1, 0], "value": -1.4985021054832012e308},
        {"word": [1, 0, 0], "value": 1.4975055582033222e308},
        {"word": [0, 0, 1], "value": -1.0},
        {"word": [1, 1, 1], "value": -5.483364963615397e307},
    ]
    pot.write_text(json.dumps({"depth": 3, "tail": {"kind": "log", "c": 1}, "table": table}))
    argv = ["converge", "--shift", str(shift), "--potential", str(pot), "--stages", "0,1,2"]
    assert run([*argv, "--no-cache"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert [stage["base"] for stage in payload["stages"]] == [[0, 0]] * 3
    assert [stage["m"] for stage in payload["stages"]] == [9.906113859579084e307] * 3
    assert run([*argv, "--no-cache", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: vertices unreachable from the seeds: [(1, 0), (1, 1)] "
        "(their walk weights overflow the float range to -inf)\n"
    )


@pytest.mark.parametrize(
    "extra, walks",
    [([], 0), (["--scan-to", "23"], 1), (["--letters", "1,3"], 3), (["--format", "csv"], 3)],
    ids=["json", "scan-to", "letters", "csv"],
)
def test_converge_walks_only_the_barriers_it_prints(renewal_files, monkeypatch, extra, walks):
    from peierls import truncation

    calls, walk = [], truncation.compute_barrier
    monkeypatch.setattr(truncation, "compute_barrier", lambda g: calls.append(g) or walk(g))
    shift, pot = renewal_files
    argv = ["converge", "--shift", shift, "--potential", pot, "--stages", "6,12,24", *extra]
    assert run(argv) == 0
    assert len(calls) == walks
    calls.clear()
    assert run(argv) == 0  # every stage from the cache walks the same
    assert len(calls) == walks


def test_a_cut_of_a_finite_shift_that_is_not_transitive_names_its_groups(tmp_path, capsys):
    # cut at 2, the edge 3 -> 0 is gone, so no walk from 1 or 2 comes back to 0
    edges = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 0], [0, 2], [0, 3], [1, 1], [1, 3], [2, 1], [3, 3]]
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps({"kind": "explicit-finite", "alphabet_size": 4, "edges": edges}))
    table = [{"word": [i], "value": -i} for i in range(4)]
    pot.write_text(json.dumps({"depth": 1, "tail": TAIL, "table": table}))
    argv = ["barrier", "--shift", str(shift), "--potential", str(pot), "--max-letter"]
    assert run(argv + ["2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: required letters split across 2 components: [0], [1, 2]\n"
    assert run(argv + ["3"]) == 0


def test_a_potential_deeper_than_the_recursion_limit_optimizes(tmp_path, capsys):
    # one letter with a loop: the single vertex is the word of 1,499 zeros
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(RENEWAL_SHIFT)
    pot.write_text(json.dumps({"depth": 1500, "tail": TAIL}))
    argv = ["optimize", "--shift", str(shift), "--potential", str(pot), "--max-letter", "0"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 0.0


@pytest.mark.parametrize("where", ["c", "value", "-value"])
def test_an_integer_too_large_for_a_float_is_an_input_error(tmp_path, capsys, where):
    huge = int("9" * 401)
    tail = {"kind": "linear", "c": huge if where == "c" else 1}
    value = {"c": 0.0, "value": huge, "-value": -huge}[where]
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(RENEWAL_SHIFT)
    pot.write_text(json.dumps({"depth": 1, "tail": tail, "table": [{"word": [0], "value": value}]}))
    argv = ["barrier", "--shift", str(shift), "--potential", str(pot), "--max-letter", "4"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if where == "c":
        assert err == "error: tail scale c must be a positive finite number\n"
    else:
        assert err == "error: table value for (0,) must be finite\n"


def _capped_cli(argv: list[str], cwd: Path, timeout: float = 60) -> subprocess.CompletedProcess:
    """``python -m peierls.cli`` in a child whose address space is capped at 400 MB, so a
    run that keeps allocating ends in a MemoryError there rather than in the test runner."""
    import resource

    cap = 400 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "peierls.cli", *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


HUGE = 10**12
LIMIT = "exceed the size limit of 250000"
HUGE_FULL = {"kind": "full", "alphabet_size": HUGE}


@pytest.mark.parametrize(
    "shift, argv, message",
    [
        (HUGE_FULL, ["optimize"], f"{HUGE} letters in 0..{HUGE - 1} {LIMIT}"),
        (HUGE_FULL, ["shift", "check"], f"{HUGE} letters in 0..{HUGE - 1} {LIMIT}"),
        # the covering-core search stops at its first bound, which passes the limit
        (HUGE_FULL, ["converge", "--stages", "600"], f"361201 edges among letters 0..600 {LIMIT}"),
        # few enough letters, but every pair of them is an edge
        (
            {"kind": "full", "alphabet_size": 10**5},
            ["shift", "check"],
            f"{10**10} edges among letters 0..99999 {LIMIT}",
        ),
        (
            {"kind": "explicit-finite", "alphabet_size": HUGE, "edges": [[0, 0]]},
            ["shift", "check"],
            f"{HUGE} letters of the alphabet {LIMIT}",
        ),
        (
            {"kind": "renewal", "renewal": {"a": HUGE, "b": 0}},
            ["optimize", "--max-letter", "1"],
            f"{HUGE + 1} letters in 0..{HUGE} {LIMIT}",
        ),
        (
            {"kind": "renewal", "renewal": {"a": 2, "b": 0}},
            ["optimize", "--max-letter", str(HUGE)],
            "letters to cover number more than the size limit of 250000",
        ),
    ],
    ids=[
        "optimize-full",
        "check-full",
        "converge-full",
        "check-full-edges",
        "check-explicit",
        "renewal-entry",
        "renewal-max-letter",
    ],
)
def test_a_huge_alphabet_is_an_input_error_not_a_memory_error(tmp_path, shift, argv, message):
    (tmp_path / "shift.json").write_text(json.dumps(shift), encoding="utf-8")
    (tmp_path / "pot.json").write_text(RENEWAL_POT, encoding="utf-8")
    argv = [*argv, "--shift", "shift.json"]
    if argv[0] != "shift":
        argv += ["--potential", "pot.json"]
    done = _capped_cli(argv, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_a_4000_letter_ring_converges_within_a_minute(tmp_path):
    # each layer once took time quadratic or worse in the alphabet: hours for this ladder
    n = 4000
    edges = [[i, (i + 1) % n] for i in range(n)]
    ring = {"kind": "explicit-finite", "alphabet_size": n, "edges": edges}
    (tmp_path / "ring.json").write_text(json.dumps(ring), encoding="utf-8")
    (tmp_path / "pot.json").write_text(RENEWAL_POT, encoding="utf-8")
    argv = ["converge", "--shift", "ring.json", "--potential", "pot.json", "--stages", "0,1"]
    done = _capped_cli([*argv, "--no-cache"], tmp_path)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)["stages"]
    assert [(s["used"], s["cycle"]) for s in stages] == [(n - 1, [[l] for l in range(n)])] * 2


def test_optimize_on_a_250000_letter_ring_ends_within_its_time_budget(tmp_path):
    # about 4 s and 330 MB on a 2-core machine once every pass reads one numbered graph; the
    # word-keyed passes took 8.4 s and 470 MB, past both the budget and the child's cap
    n = 250_000
    edges = [[i, (i + 1) % n] for i in range(n)]
    ring = {"kind": "explicit-finite", "alphabet_size": n, "edges": edges}
    (tmp_path / "ring.json").write_text(json.dumps(ring), encoding="utf-8")
    (tmp_path / "pot.json").write_text(RENEWAL_POT, encoding="utf-8")
    argv = ["optimize", "--shift", "ring.json", "--potential", "pot.json"]
    done = _capped_cli(argv, tmp_path, timeout=8)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["cycle"][:3] == [[0], [1], [2]]


def test_a_probe_whose_floors_pass_the_float_range_is_an_input_error(tmp_path, capsys):
    # floors near -1e308 overflowed math.fsum in the probe's slope fit: an OverflowError
    table = [{"word": [0], "value": -1e308}, {"word": [1], "value": 0.0}]
    (tmp_path / "shift.json").write_text(RENEWAL_SHIFT, encoding="utf-8")
    (tmp_path / "pot.json").write_text(json.dumps({"depth": 1, "tail": TAIL, "table": table}))
    argv = ["converge", "--shift", str(tmp_path / "shift.json"), "--potential"]
    argv += [str(tmp_path / "pot.json"), "--stages", "6,12", "--scan-to", "11", "--no-cache"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the probe's floors pass the float range in its slope fit\n")


def test_shift_check_at_a_huge_horizon_builds_only_its_witnesses(renewal_files, tmp_path):
    shift, _ = renewal_files
    done = _capped_cli(["shift", "check", "--shift", shift, "--horizon", "1000000000"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["bp"]["witnesses"] == list(range(1, 48, 2))


def test_barrier_countable_shift_requires_max_letter(renewal_files, capsys):
    shift, pot = renewal_files
    assert run(["barrier", "--shift", shift, "--potential", pot]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--max-letter" in err


TAIL = {"kind": "linear", "c": 1}


@pytest.mark.parametrize(
    "shift, pot, values, message",
    [
        ({"kind": "full", "alphabet_size": 2, "lambda": "x"}, None, None,
         "lambda must be a number in (0, 1)"),
        ({"kind": "full", "alphabet_size": 2, "lambda": 1.0}, None, None,
         "metric parameter lambda must lie strictly in (0, 1)"),
        ({"kind": "full", "alphabet_size": 2, "lambda": 0}, None, None,
         "metric parameter lambda must lie strictly in (0, 1)"),
        ({"kind": "full", "alphabet_size": 2, "lambda": 10**400}, None, None,
         "metric parameter lambda must lie strictly in (0, 1)"),
        ({"kind": "renewal", "renewal": {"a": 2}}, None, None,
         'renewal shifts need {"renewal": {"a": int, "b": int}}'),
        ({"kind": "renewal", "renewal": {"a": 2.5, "b": 0}}, None, None,
         "renewal parameters a, b must be integers"),
        ({"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 0], [0]]}, None, None,
         "edge entries must be [i, j] integer pairs, got [0]"),
        (None, [], None, "potential document must be a JSON object"),
        (None, {"depth": 1}, None, 'potentials need {"tail": {"kind": ..., "c": ...}}'),
        (None, {"depth": 1, "tail": TAIL, "table": {}}, None,
         "table must be a list of {word, value} entries"),
        (None, {"depth": 1, "tail": TAIL, "table": [{"word": [0]}]}, None,
         "table entries must be {word, value} objects, got {'word': [0]}"),
        (None, {"depth": 1, "tail": TAIL, "table": [{"word": [0.5], "value": 1}]}, None,
         "table word must be a list of integers, got [0.5]"),
        (None, {"depth": 1, "tail": TAIL, "table": [{"word": [0], "value": "x"}]}, None,
         "table value must be a number, got 'x'"),
        (None, None, "0\n", "{values}:1: expected 'vertex_word,value'"),
        (None, None, "0,1.0\n1,x\n", "{values}:2: bad value 'x'"),
        (None, None, "\n\n", "{values}: no value rows found"),
        (None, None, "a,1.0\n", "malformed vertex word 'a'"),
        (None, None, "0,0.0\n1,nan\n", "{values}:2: bad value 'nan'"),
        (None, None, "0,inf\n1,0.0\n", "{values}:1: bad value 'inf'"),
        (None, None, "0,0.0\n1,0.0\n0,1.0\n", "{values}:3: repeated vertex word '0'"),
    ],
    ids=[
        "lambda-not-a-number", "lambda-one", "lambda-zero", "lambda-past-float-range",
        "renewal-without-b",
        "renewal-not-integers", "edge-not-a-pair", "potential-not-an-object", "no-tail",
        "table-not-a-list", "entry-malformed", "word-not-integers", "value-not-a-number",
        "csv-line-without-comma", "csv-bad-value", "csv-no-rows", "csv-malformed-word", "csv-nan",
        "csv-inf", "csv-repeated-word",
    ],
)
def test_malformed_input_is_a_usage_error(gm_files, tmp_path, capsys, shift, pot, values, message):
    shift_path, pot_path = gm_files
    if shift is not None:
        shift_path = str(tmp_path / "bad_shift.json")
        Path(shift_path).write_text(json.dumps(shift))
    if pot is not None:
        pot_path = str(tmp_path / "bad_pot.json")
        Path(pot_path).write_text(json.dumps(pot))
    values_path = tmp_path / "values.csv"
    values_path.write_text("0,0.0\n1,0.0\n" if values is None else values)
    argv = ["subaction", "verify", "--shift", shift_path, "--potential", pot_path]
    assert run(argv + ["--values", str(values_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.replace('{values}', str(values_path))}\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_a_usage_error(tmp_path, capsys, tol):
    # with --tol inf the parent printed m = -5.0 on [[0]]; the maximum is -8/3 on [[0],[2],[1]]
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps({"kind": "renewal", "renewal": {"a": 1, "b": 1}}))
    pot.write_text(json.dumps({"depth": 1, "tail": TAIL, "table": [{"word": [0], "value": -5}]}))
    argv = ["optimize", "--shift", str(shift), "--potential", str(pot), "--max-letter", "3"]
    assert run(argv + ["--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: tolerance must be finite and nonnegative, got {float(tol)!r}\n"
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["cycle"] == [[0], [2], [1]]


def test_missing_file_is_a_usage_error(gm_files, capsys):
    _, pot = gm_files
    assert run(["optimize", "--shift", "/nonexistent.json", "--potential", pot]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_shift_check_payload(gm_files, tmp_path, capsys):
    shift, _ = gm_files
    out = tmp_path / "report.json"
    assert run(["shift", "check", "--shift", shift, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["bp"]["status"] == "SATISFIED"
    assert payload["bi"]["status"] == "SATISFIED"
    assert payload["transitive"] is True


def test_shift_check_renewal(renewal_files, capsys):
    shift, _ = renewal_files
    assert run(["shift", "check", "--shift", shift]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bp"]["status"] == "REFUTED"
    assert payload["bp"]["witnesses"][:3] == [1, 3, 5]
    assert payload["bi"]["status"] == "REFUTED"
    assert payload["transitive"] is None


def test_barrier_csv_round_trips_into_verify(renewal_files, tmp_path, capsys):
    shift, pot = renewal_files
    values = tmp_path / "values.csv"
    code = run(
        [
            "barrier",
            "--shift",
            shift,
            "--potential",
            pot,
            "--max-letter",
            "6",
            "--format",
            "csv",
            "--out",
            str(values),
        ]
    )
    assert code == 0
    text = values.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "0,0.0"
    assert "5,-6.0" in text.splitlines()
    code = run(
        [
            "subaction",
            "verify",
            "--shift",
            shift,
            "--potential",
            pot,
            "--max-letter",
            "6",
            "--values",
            str(values),
            "--assert",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_subaction"] is True
    assert payload["is_calibrated"] is True
    assert payload["supp_in_contact"] is True


def test_a_barrier_with_large_weights_passes_its_own_check(tmp_path, capsys):
    # near 1e12 one ulp is 1.2e-4: the check must allow the graph's rounding, not just 1e-9
    shift = tmp_path / "full.json"
    pot = tmp_path / "large.json"
    values = tmp_path / "values.csv"
    shift.write_text(json.dumps({"kind": "full", "alphabet_size": 2}), encoding="utf-8")
    table = {(0, 0): 1e12 - 3 / 7, (0, 1): 1e12 - 3 / 7, (1, 0): 1e12 - 1 / 7, (1, 1): 1e12 - 3 / 7}
    rows = [{"word": list(w), "value": x} for w, x in table.items()]
    tail = {"kind": "linear", "c": 1}
    pot.write_text(json.dumps({"depth": 2, "tail": tail, "table": rows}), encoding="utf-8")
    io = ["--shift", str(shift), "--potential", str(pot)]
    assert run(["barrier", *io, "--format", "csv", "--out", str(values)]) == 0
    assert run(["subaction", "verify", *io, "--values", str(values), "--assert"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_calibrated"] is True
    assert payload["supp_in_contact"] is True


def test_verify_assert_fails_on_broken_values(gm_files, tmp_path, capsys):
    shift, pot = gm_files
    values = tmp_path / "broken.csv"
    values.write_text("0,0.0\n1,5.0\n", encoding="utf-8")
    code = run(
        [
            "subaction",
            "verify",
            "--shift",
            shift,
            "--potential",
            pot,
            "--values",
            str(values),
            "--assert",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_subaction"] is False


@pytest.mark.parametrize(
    "command, field",
    [
        (["verify"], "worst_violation"),  # the step 1e308 -> -1e308 overflows
        (["compare", "--values-b", "b.csv"], "constant"),  # the differences are inf and -inf
    ],
    ids=["verify", "compare"],
)
def test_a_report_number_that_is_not_finite_is_an_input_error(
    gm_files, tmp_path, monkeypatch, capsys, command, field
):
    # JSON has no inf or nan: the command names the field and prints nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text("0,1e308\n1,-1e308\n", encoding="utf-8")
    (tmp_path / "b.csv").write_text("0,-1e308\n1,1e308\n", encoding="utf-8")
    shift, pot = gm_files
    argv = ["subaction", *command, "--shift", shift, "--potential", pot, "--values", "a.csv"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: report field {field!r} holds a non-finite number\n"


def test_compare_constant_difference(gm_files, tmp_path, capsys):
    shift, pot = gm_files
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0,0.0\n1,0.0\n", encoding="utf-8")
    b.write_text("0,1.5\n1,1.5\n", encoding="utf-8")
    code = run(
        [
            "subaction",
            "compare",
            "--shift",
            shift,
            "--potential",
            pot,
            "--values",
            str(a),
            "--values-b",
            str(b),
            "--assert",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_constant_diff"] is True
    assert payload["constant"] == -1.5
    assert payload["critical_class_unique"] is True


@pytest.mark.parametrize("verdict", [[], ["--assert"]], ids=["report", "assert"])
def test_compare_rejects_tables_that_miss_the_graphs_vertices(
    renewal_files, tmp_path, capsys, verdict
):
    shift, pot = renewal_files
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("99,0.0\n98,1.0\n", encoding="utf-8")
    b.write_text("99,0.5\n98,1.5\n", encoding="utf-8")
    argv = ["subaction", "compare", "--shift", shift, "--potential", pot, "--max-letter", "4"]
    assert run([*argv, "--values", str(a), "--values-b", str(b), *verdict]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: values missing for vertices: [(0,), (1,), (2,), (3,)]\n"


def test_converge_csv_lists_every_stage(renewal_files, capsys):
    shift, pot = renewal_files
    code = run(
        [
            "converge",
            "--shift",
            shift,
            "--potential",
            pot,
            "--stages",
            "6,12",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "6,0,0.0"
    assert "6,5,-6.0" in rows
    assert "12,11,-12.0" in rows
    assert len(rows) == 7 + 13


def test_converge_json_with_probe_and_assert(renewal_files, capsys):
    shift, pot = renewal_files
    code = run(
        [
            "converge",
            "--shift",
            shift,
            "--potential",
            pot,
            "--stages",
            "6,12,24",
            "--letters",
            "1,3,5",
            "--scan-to",
            "23",
            "--assert",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["used"] for s in payload["stages"]] == [6, 12, 24]
    assert payload["base_stable"] is True
    assert payload["stabilization"]["ok"] is True
    assert payload["probe"]["verdict"] == "DIVERGENT"
    assert payload["probe"]["slope"] == pytest.approx(-1.0)


def test_converge_covers_a_finite_alphabet_past_the_oracle_budget(tmp_path, capsys):
    # a search held to 64 bounds past the top requested letter gave up here at bound 67
    edges = [[i, i + 1] for i in range(5)] + [[5, 99], [99, 0]] + [[i, i] for i in range(6, 99)]
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps({"kind": "explicit-finite", "alphabet_size": 100, "edges": edges}))
    pot.write_text(GM_POT)
    argv = ["converge", "--shift", str(shift), "--potential", str(pot), "--stages", "3,5"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(s["requested"], s["used"]) for s in payload["stages"]] == [(3, 99), (5, 99)]
    assert payload["stages"][0]["cycle"] == [[0], [1], [2], [3], [4], [5], [99]]


def test_converge_requires_stages(renewal_files, capsys):
    shift, pot = renewal_files
    with pytest.raises(SystemExit) as exc:
        run(["converge", "--shift", shift, "--potential", pot])
    assert exc.value.code == 2
    assert "--stages" in capsys.readouterr().err


def test_empty_stage_list_is_a_usage_error(renewal_files, capsys):
    shift, pot = renewal_files
    for argv in (
        ["converge", "--shift", shift, "--potential", pot, "--stages", ""],
        ["demo", "renewal", "--stages", ""],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one stage bound is required" in captured.err


def test_demo_renewal_verdicts(capsys):
    assert run(["demo", "renewal", "--a", "2", "--b", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 0.0
    assert payload["verdicts"] == {"bp": "REFUTED", "boundedness": "DIVERGENT"}
    assert payload["conclusion"] == "no bounded calibrated subaction exists."
    assert run(["demo", "renewal", "--a", "1", "--b", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"] == {"bp": "SATISFIED", "boundedness": "BOUNDED"}
    assert payload["conclusion"] == "a bounded calibrated subaction exists."
    # three fitted letters are too few to establish a trend
    argv = ["demo", "renewal", "--a", "2", "--b", "0", "--stages", "6", "--scan-to", "5"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"] == {"bp": "REFUTED", "boundedness": "INCONCLUSIVE"}
    assert payload["conclusion"] == "the probe is inconclusive."


def test_repeated_runs_are_byte_identical(renewal_files, capsys):
    shift, pot = renewal_files
    args = [
        "converge",
        "--shift",
        shift,
        "--potential",
        pot,
        "--stages",
        "6,12",
        "--scan-to",
        "11",
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0  # cache warm now
    second = capsys.readouterr().out
    assert run(args + ["--no-cache"]) == 0
    third = capsys.readouterr().out
    assert first == second == third


def test_converge_prints_the_same_bytes_after_a_run_at_another_tolerance(
    tmp_path, monkeypatch, capsys
):
    # at --tol 1e-3 the loop at 0 (mean -1e-4) ties the loop at 1 (mean 0); a cache
    # keyed without the tolerance served the default run's m 0.0 on [[1]] to this one
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps(
        {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]}
    ))
    table = [{"word": [0], "value": -0.0001}, {"word": [1], "value": 0.0}]
    pot.write_text(json.dumps({"depth": 1, "tail": TAIL, "table": table}))
    default = ["converge", "--shift", str(shift), "--potential", str(pot), "--stages", "0,1"]
    argv = default + ["--tol", "1e-3"]
    assert run(argv + ["--no-cache"]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["stages"][1]["cycle"] == [[0]]
    assert run(argv) == 0  # cold
    assert capsys.readouterr().out == expected
    monkeypatch.setenv("PEIERLS_CACHE_DIR", str(tmp_path / "filled-at-the-default"))
    assert run(default) == 0
    assert json.loads(capsys.readouterr().out)["stages"][1]["cycle"] == [[1]]
    for _ in range(2):  # a miss, then a hit on its own entry
        assert run(argv) == 0
        assert capsys.readouterr().out == expected


def test_converge_on_tied_loops_prints_the_same_bytes_from_any_cache_state(
    tmp_path, capsys
):
    # the loops at 0 and 1 tie at mean 0 and a fresh build prints base [0]; a hit
    # must too, even from an entry that names the loop at 1 as its cycle
    shift, pot = tmp_path / "shift.json", tmp_path / "pot.json"
    shift.write_text(json.dumps(
        {"kind": "explicit-finite", "alphabet_size": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]}
    ))
    table = [{"word": [0], "value": 0.0}, {"word": [1], "value": 0.0}]
    pot.write_text(json.dumps({"depth": 1, "tail": TAIL, "table": table}))
    argv = ["converge", "--shift", str(shift), "--potential", str(pot), "--stages", "1"]
    assert run(argv + ["--no-cache"]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["stages"][0]["base"] == [0]
    assert run(argv) == 0  # cold
    assert capsys.readouterr().out == expected
    assert run(argv) == 0  # warm
    assert capsys.readouterr().out == expected
    (entry,) = Path(os.environ["PEIERLS_CACHE_DIR"]).iterdir()
    entry.write_text(json.dumps({**json.loads(entry.read_text()), "cycle": [[1]]}))
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_unwritable_out_path_is_an_input_error(renewal_files, tmp_path, capsys):
    shift, pot = renewal_files
    out = tmp_path / "missing-dir" / "x.json"
    argv = ["barrier", "--shift", shift, "--potential", pot, "--max-letter", "6"]
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}:")
    assert not out.exists()


@pytest.mark.parametrize("below_a_file", [False, True])
def test_unwritable_cache_dir_leaves_converge_alone(
    renewal_files, tmp_path, monkeypatch, capsys, below_a_file
):
    shift, pot = renewal_files
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    root = blocker / "cache" if below_a_file else blocker
    monkeypatch.setenv("PEIERLS_CACHE_DIR", str(root))
    argv = ["converge", "--shift", shift, "--potential", pot, "--stages", "6,12"]
    assert run(argv + ["--no-cache"]) == 0
    expected = capsys.readouterr().out
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
    assert blocker.read_text(encoding="utf-8") == ""
