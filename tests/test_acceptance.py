"""Acceptance gate: ten criteria, one printed pass line each (run with -s to see them).

Every criterion is self-contained and seeded, so the suite is deterministic.
Tolerances are pinned at 1e-9 and the timed criteria assert their budgets.
"""

import json
import random
import time

import pytest

from peierls import (
    PotentialSpec,
    ShiftSpec,
    barrier_length_profile,
    bp_boundedness_probe,
    build_family,
    build_memory_graph,
    check_bp,
    compare_up_to_constant,
    compute_barrier,
    consistent_seed,
    covering_core,
    fixpoint_subaction,
    graph_from_weights,
    max_mean_cycle,
    optimize,
    stabilization_experiment,
    truncate,
    uniqueness_comparison,
    verify_subaction,
)
from peierls.cli import run

from oracles import oracle_barrier, oracle_max_mean, random_graph

TOL = 1e-9

GM_SPEC = ShiftSpec(
    kind="explicit-finite",
    alphabet_size=2,
    edges=frozenset({(0, 0), (0, 1), (1, 0)}),
)
GM_POT = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0)
RENEWAL_SPEC = ShiftSpec(kind="renewal", renewal_rule=(2, 0))
ONE_STEP_SPEC = ShiftSpec(kind="renewal", renewal_rule=(1, 1))
RENEWAL_POT = PotentialSpec(
    depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0}
)


def _seeded_graphs(seed, count, max_vertices):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        weights = random_graph(rng, rng.randint(1, max_vertices))
        out.append(weights)
    return out


def _worked_examples():
    """The finite examples every structural criterion must cover."""
    examples = []
    gm = optimize(build_memory_graph(truncate(GM_SPEC, 1), GM_POT))
    examples.append(("golden-mean", gm))
    for bound in (6, 12, 24):
        core = covering_core(RENEWAL_SPEC, range(bound + 1))
        examples.append(
            (f"renewal-trunc-{bound}", optimize(build_memory_graph(core, RENEWAL_POT)))
        )
    one_step = covering_core(ONE_STEP_SPEC, range(9))
    examples.append(("one-step-renewal", optimize(build_memory_graph(one_step, RENEWAL_POT))))
    deep = PotentialSpec(
        depth=3,
        tail_kind="linear",
        tail_scale=1.0,
        table={
            (0, 0, 0): 0.0,
            (0, 0, 1): 1.0,
            (0, 1, 0): -1.0,
            (1, 0, 0): 0.0,
            (1, 0, 1): 1.0,
        },
    )
    examples.append(
        ("golden-mean-depth-3", optimize(build_memory_graph(truncate(GM_SPEC, 1), deep)))
    )
    return examples


def _unique_class_graphs(seed, count):
    rng = random.Random(seed)
    found = []
    for _ in range(40 * count):
        weights = random_graph(rng, rng.randint(1, 7))
        g = optimize(graph_from_weights(weights))
        if g.critical_class_unique:
            found.append(g)
            if len(found) == count:
                return found
    raise AssertionError(f"only {len(found)} unique-class graphs found for seed {seed}")


def test_criterion_01_max_mean_matches_cycle_oracle():
    started = time.perf_counter()
    for weights in _seeded_graphs(11, 200, 8):
        mean, _ = max_mean_cycle(graph_from_weights(weights))
        assert abs(mean - oracle_max_mean(weights)) <= TOL
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: Karp mean equals cycle enumeration on 200 graphs ({elapsed:.2f}s)")


def test_criterion_02_barrier_matches_path_oracle():
    started = time.perf_counter()
    for weights in _seeded_graphs(12, 200, 7):
        g = optimize(graph_from_weights(weights))
        result = compute_barrier(g)
        oracle = oracle_barrier(weights, result.base_vertex, g.max_mean)
        assert set(result.values) == set(oracle)
        for v, value in result.values.items():
            assert abs(value - oracle[v]) <= TOL
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 2: barrier equals simple-path enumeration on 200 graphs ({elapsed:.2f}s)")


def test_criterion_03_barrier_is_a_calibrated_subaction_everywhere():
    failures = 0
    checked = 0
    graphs = [graph_from_weights(w) for w in _seeded_graphs(11, 200, 8)]
    graphs += [graph_from_weights(w) for w in _seeded_graphs(12, 200, 7)]
    graphs += [g for _, g in _worked_examples()]
    for g in graphs:
        if not g.is_optimized():
            g = optimize(g)
        report = verify_subaction(g, compute_barrier(g).values)
        checked += 1
        if not (report.is_subaction and report.is_calibrated and report.supp_in_contact):
            failures += 1
    assert checked == 406
    assert failures == 0
    print(f"PASS criterion 3: barrier verified as calibrated subaction on {checked} graphs")


def test_criterion_04_renewal_reproduction(capsys):
    started = time.perf_counter()
    family = build_family(RENEWAL_SPEC, RENEWAL_POT, [6, 12, 24])
    for stage in family.stages:
        assert abs(stage.graph.max_mean) <= TOL
    final = family.stages[-1]
    for j in range(25):
        expected = 0.0 if j % 2 == 0 else -float(j + 1)
        assert abs(final.barrier.values[(j,)] - expected) <= TOL
    for j in range(7):
        values = {s.barrier.values[(j,)] for s in family.stages}
        assert len(values) == 1
    assert check_bp(RENEWAL_SPEC).status == "REFUTED"
    probe = bp_boundedness_probe(family, RENEWAL_SPEC, 23)
    assert probe.verdict == "DIVERGENT"
    assert abs(probe.slope - (-1.0)) <= 1e-6
    assert run(["demo", "renewal", "--a", "2", "--b", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion"] == "no bounded calibrated subaction exists."
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS criterion 4: renewal family reproduced end to end ({elapsed:.2f}s)")


def test_criterion_05_barrier_is_minimal_under_lifted_seeds():
    rng = random.Random(13)
    for g in _unique_class_graphs(13, 50):
        barrier = compute_barrier(g).values
        base = g.critical_cycle[0]
        seed = consistent_seed(g)
        offset = rng.uniform(0.0, 5.0)
        lifted = fixpoint_subaction(g, {v: x + offset for v, x in seed.items()})
        for v, value in barrier.items():
            assert value <= lifted[v] - lifted[base] + TOL
    print("PASS criterion 5: barrier below every lifted fixpoint on 50 graphs")


def test_criterion_06_uniqueness_up_to_constants():
    for g in _unique_class_graphs(14, 50):
        barrier = compute_barrier(g).values
        fixed = fixpoint_subaction(g, consistent_seed(g))
        comparison = compare_up_to_constant(barrier, fixed)
        assert comparison.is_constant_diff
        assert comparison.max_deviation <= TOL
    two_class = optimize(
        graph_from_weights({(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): 0.0})
    )
    barrier = compute_barrier(two_class).values
    rival = {0: 0.0, 1: 0.0}
    assert verify_subaction(two_class, rival).is_calibrated
    report = uniqueness_comparison(two_class, barrier, rival)
    assert not report.comparison.is_constant_diff
    assert "uniqueness hypothesis" in report.note
    print("PASS criterion 6: constant-difference uniqueness on 50 graphs, named failure on two classes")


def test_criterion_07_profiles_attain_and_hold_the_barrier():
    for name in ("golden-mean", "renewal-trunc-6"):
        g = dict(_worked_examples())[name]
        values = compute_barrier(g).values
        size = len(g.vertices)
        period = len(g.critical_cycle)
        horizon = size + 4 * period + 4
        for v, target in values.items():
            profile = barrier_length_profile(g, v, horizon)
            running = max(profile[: size + 1])
            assert abs(running - target) <= TOL
            attained = min(
                n for n, x in enumerate(profile[: size + 1]) if abs(x - target) <= TOL
            )
            for n in range(attained, horizon + 1, period):
                assert abs(profile[n] - target) <= TOL
    print("PASS criterion 7: length profiles attain the barrier by |V| and hold it on period multiples")


def test_criterion_08_bounds_and_stabilization_predictions():
    for name, g in _worked_examples():
        result = compute_barrier(g)
        assert result.bounds is not None, name
        for (letter, *_rest), value in result.values.items():
            assert value <= result.bounds.per_letter[letter] + TOL
            assert value <= result.bounds.global_bound + TOL
    renewal_family = build_family(RENEWAL_SPEC, RENEWAL_POT, [6, 12, 24])
    report = stabilization_experiment(renewal_family, range(7))
    assert report.ok
    for entry in report.entries:
        assert entry.ok is True
        assert entry.observed_used <= entry.predicted.confinement_bound
    gm_family = build_family(GM_SPEC, GM_POT, [1, 5])
    gm_report = stabilization_experiment(gm_family, [0, 1])
    assert gm_report.ok
    print("PASS criterion 8: per-letter and global bounds hold; stabilization within predicted cutoffs")


def test_criterion_09_bp_and_boundedness_never_disagree():
    bounded_family = build_family(ONE_STEP_SPEC, RENEWAL_POT, [8, 16])
    bounded = bp_boundedness_probe(bounded_family, ONE_STEP_SPEC, 12)
    assert bounded.bp.status == "SATISFIED"
    assert bounded.verdict == "BOUNDED"
    divergent_family = build_family(RENEWAL_SPEC, RENEWAL_POT, [6, 12, 24])
    divergent = bp_boundedness_probe(divergent_family, RENEWAL_SPEC, 23)
    assert divergent.bp.status == "REFUTED"
    assert divergent.verdict == "DIVERGENT"
    probes = [bounded, divergent]
    for a in (1, 2, 3):
        for b in (0, 1, 2):
            spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
            family = build_family(spec, RENEWAL_POT, [10, 20])
            probes.append(bp_boundedness_probe(family, spec, 9))
    assert all(p.consistent for p in probes)
    print(f"PASS criterion 9: BP and probe verdicts consistent across {len(probes)} runs")


def test_criterion_10_cli_runs_are_byte_identical(tmp_path, capsys):
    shift = tmp_path / "shift.json"
    pot = tmp_path / "pot.json"
    shift.write_text(
        json.dumps({"kind": "renewal", "renewal": {"a": 2, "b": 0}}), encoding="utf-8"
    )
    pot.write_text(
        json.dumps(
            {
                "depth": 1,
                "tail": {"kind": "linear", "c": 1},
                "table": [{"word": [0], "value": 0.0}],
            }
        ),
        encoding="utf-8",
    )
    commands = [
        ["demo", "renewal", "--a", "2", "--b", "0"],
        ["barrier", "--shift", str(shift), "--potential", str(pot), "--max-letter", "6"],
        [
            "barrier",
            "--shift",
            str(shift),
            "--potential",
            str(pot),
            "--max-letter",
            "6",
            "--format",
            "csv",
        ],
        [
            "converge",
            "--shift",
            str(shift),
            "--potential",
            str(pot),
            "--stages",
            "6,12",
            "--scan-to",
            "11",
        ],
    ]
    for argv in commands:
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
    print(f"PASS criterion 10: {len(commands)} CLI commands byte-identical across repeated runs")
