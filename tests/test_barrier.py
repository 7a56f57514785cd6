import math
import random
import sys
from unittest import mock

import pytest

from peierls import (
    CutoffReport,
    GraphError,
    PotentialSpec,
    ShiftSpec,
    TransitivityError,
    TruncationError,
    barrier,
    barrier_length_profile,
    build_memory_graph,
    compute_barrier,
    covering_core,
    graph_from_weights,
    letter_cutoff,
    optimize,
    truncate,
)
from peierls.barrier import (
    _bound_report,
    ambient_total_variation,
    coercive_letter_bound,
    inf_bound_on_letter,
)
from peierls.digraph import least_exits
from peierls.potential import admissible_words

from oracles import (
    oracle_barrier,
    oracle_connect_len,
    oracle_connecting_word,
    oracle_covering_core,
    oracle_walk_profile,
    random_graph,
)


def test_barrier_golden_mean(gm_graph):
    result = compute_barrier(gm_graph)
    assert result.base_vertex == (0,)
    assert result.values == {(0,): 0.0, (1,): 0.0}
    assert math.copysign(1.0, result.values[(0,)]) == 1.0
    bounds = result.bounds
    assert bounds is not None
    assert bounds.per_letter == {0: 0.0, 1: 1.0}
    assert bounds.global_bound == 0.0
    assert bounds.ambient_variation == 0.0


def test_barrier_renewal_truncation(renewal_graph):
    result = compute_barrier(renewal_graph)
    expected = {0: 0.0, 1: -2.0, 2: 0.0, 3: -4.0, 4: 0.0, 5: -6.0, 6: 0.0}
    assert result.values == {(j,): x for j, x in expected.items()}
    assert result.bounds.per_letter[5] == 25.0
    for (j,), value in result.values.items():
        assert value <= result.bounds.per_letter[j] + 1e-9
        assert value <= result.bounds.global_bound + 1e-9


def test_barrier_requires_optimized_graph():
    g = graph_from_weights({(0, 0): 0.0})
    with pytest.raises(GraphError):
        compute_barrier(g)
    with pytest.raises(GraphError):
        barrier_length_profile(g, 0, 4)


def test_barrier_matches_path_enumeration_on_seeded_graphs():
    rng = random.Random(911)
    for _ in range(60):
        weights = random_graph(rng, rng.randint(1, 7))
        g = optimize(graph_from_weights(weights))
        result = compute_barrier(g)
        oracle = oracle_barrier(weights, result.base_vertex, g.max_mean)
        assert set(result.values) == set(oracle)
        for v, value in result.values.items():
            assert value == pytest.approx(oracle[v], abs=1e-9)
        assert result.bounds is None


def test_profile_matches_step_enumeration(renewal_graph):
    compute_barrier(renewal_graph)
    base = renewal_graph.critical_cycle[0]
    for target in renewal_graph.vertices:
        got = barrier_length_profile(renewal_graph, target, 8)
        want = oracle_walk_profile(
            renewal_graph.weights, base, target, renewal_graph.max_mean, 8
        )
        assert len(got) == 9
        for a, b in zip(got, want):
            if math.isinf(b):
                assert math.isinf(a)
            else:
                assert a == pytest.approx(b, abs=1e-9)


def test_profile_frozen_values(renewal_graph):
    profile = barrier_length_profile(renewal_graph, (1,), 5)
    assert profile[0] == float("-inf")
    assert profile[1] == float("-inf")
    assert profile[2:] == (-2.0, -2.0, -2.0, -2.0)
    with pytest.raises(GraphError):
        barrier_length_profile(renewal_graph, (9,), 3)
    with pytest.raises(GraphError):
        barrier_length_profile(renewal_graph, (1,), -1)


@pytest.mark.parametrize("graph", ["gm_graph", "renewal_graph"])
def test_bounds_are_the_report_built_when_read(graph, request):
    graph = request.getfixturevalue(graph)
    result = compute_barrier(graph)
    assert result.graph is graph
    assert result.bounds == _bound_report(graph, result.values)


def test_per_letter_bound_uses_connector_and_floor(gm_graph):
    assert compute_barrier(gm_graph).bounds.per_letter == {0: 0.0, 1: 1.0}


def test_letter_cutoff_golden_mean(gm_spec, gm_pot, gm_finite):
    report = letter_cutoff(gm_spec, gm_pot, gm_finite, 1)
    assert report == CutoffReport(
        letter=1,
        excursion_cutoff=2,
        confinement_bound=3,
        local_connect_len=2,
        wide_connect_len=2,
        wide_bound=1,
    )
    base = letter_cutoff(gm_spec, gm_pot, gm_finite, 0)
    assert (base.excursion_cutoff, base.confinement_bound) == (1, 3)
    assert base.local_connect_len == 1


def test_letter_cutoff_renewal(renewal_spec, renewal_pot, renewal_finite):
    report = letter_cutoff(renewal_spec, renewal_pot, renewal_finite, 0)
    assert report == CutoffReport(
        letter=0,
        excursion_cutoff=36,
        confinement_bound=1483,
        local_connect_len=6,
        wide_connect_len=39,
        wide_bound=38,
    )


def test_letter_cutoff_guards(gm_spec, gm_pot, gm_finite):
    with pytest.raises(GraphError):
        letter_cutoff(gm_spec, gm_pot, gm_finite, 9)
    heavy = PotentialSpec(
        depth=1, tail_kind="linear", tail_scale=1.0, table={(1,): -3000.0}
    )
    # stage one reaches letter 6001, past the budget, but the alphabet stops at 1
    assert letter_cutoff(gm_spec, heavy, gm_finite, 1) == CutoffReport(
        letter=1,
        excursion_cutoff=6000,
        confinement_bound=6001,
        local_connect_len=2,
        wide_connect_len=2,
        wide_bound=1,
    )
    one_way = ShiftSpec(
        kind="explicit-finite", alphabet_size=2, edges=frozenset({(0, 0), (0, 1), (1, 1)})
    )
    with pytest.raises(TransitivityError):
        letter_cutoff(one_way, gm_pot, truncate(one_way, 1), 0)


def test_a_finite_alphabet_caps_stage_two_below_the_budget():
    # stage one asks for letters up to 10001, but a 3-letter full shift's stage-two core
    # is the whole alphabet
    spec = ShiftSpec(kind="full", alphabet_size=3)
    pot = PotentialSpec(
        depth=1, tail_kind="linear", tail_scale=0.001, table={(0,): 0.0, (1,): -10.0}
    )
    report = letter_cutoff(spec, pot, truncate(spec, 2), 0)
    assert report == CutoffReport(
        letter=0,
        excursion_cutoff=10000,
        confinement_bound=10001,
        local_connect_len=1,
        wide_connect_len=1,
        wide_bound=2,
    )


def test_wide_budget_caps_the_core_stage_two_builds():
    # the cycle 0 -> 1 -> ... -> 10 -> 0 and the chain 10 -> 11 -> ... -> 299 -> 0: stage one
    # asks for letters up to 111, but only the whole alphabet covers them
    n = 300
    edges = {(i, i + 1) for i in range(n - 1)} | {(10, 0), (n - 1, 0)}
    spec = ShiftSpec(kind="explicit-finite", alphabet_size=n, edges=frozenset(edges))
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0})
    finite = truncate(spec, 10)
    report = letter_cutoff(spec, pot, finite, 0)
    assert (report.excursion_cutoff, report.wide_bound) == (110, n - 1)
    with mock.patch.object(barrier, "WIDE_BUDGET", 200):
        with pytest.raises(TruncationError, match="up to 299, beyond the budget 200$"):
            letter_cutoff(spec, pot, finite, 0)


def random_shift(rng):
    """A seeded explicit, full or renewal core with a random depth 1-3 potential."""
    kind = rng.choice(["explicit-finite", "full", "renewal"])
    depth = rng.randint(1, 3)
    if kind == "full":
        n = rng.randint(1, 5 if depth < 3 else 4)
        spec, wanted = ShiftSpec(kind=kind, alphabet_size=n), range(n)
    elif kind == "renewal":
        spec = ShiftSpec(kind=kind, renewal_rule=(rng.randint(1, 4), rng.randint(0, 3)))
        wanted = range(rng.randint(1, 8 if depth < 3 else 5))
    else:
        n = rng.randint(1, 6)
        edges = {(i, (i + 1) % n) for i in range(n)}
        edges |= {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.25}
        spec, wanted = ShiftSpec(kind=kind, alphabet_size=n, edges=frozenset(edges)), range(n)
    core = covering_core(spec, wanted)
    words = list(admissible_words(core, depth))
    table = {w: rng.uniform(-3.0, 1.0) for w in rng.sample(words, min(len(words), 4))}
    tail = rng.choice(["linear", "log"])
    pot = PotentialSpec(depth=depth, tail_kind=tail, tail_scale=rng.uniform(0.3, 4.0), table=table)
    return spec, core, pot


def check_connect_lens(spec, pot, core, letter):
    """Compare a cutoff report with all-pairs BFS over a searched stage-two core.

    Returns False when the budget stops the report.
    """
    try:
        report = letter_cutoff(spec, pot, core, letter)
    except TruncationError:
        return False
    assert report.local_connect_len == oracle_connect_len(core.succ, letter)
    top = report.excursion_cutoff + 1  # the oracle drops letters past a finite alphabet
    if spec.max_letter() is not None:
        top = min(top, spec.max_letter())
    wide = oracle_covering_core(spec, set(range(top + 1)) | set(core.letters))
    wide_len = oracle_connect_len(wide.succ)
    assert report.wide_bound == max(wide.letters)
    assert report.wide_connect_len == wide_len
    floor = min(inf_bound_on_letter(pot, i) for i in wide.letters)
    ambient = ambient_total_variation(pot)
    assert report.confinement_bound == coercive_letter_bound(pot, wide_len * floor - ambient) + 1
    return True


def test_cutoff_connect_lens_match_all_pairs_bfs_on_renewal_cores():
    # (tail, scale, table, top letters of the stage-one cores); a negative value
    # on a letter outside the stage-one core but inside the wide one sets the wide
    # floor; a log tail's wide core can grow like (1 + K) ** (K + 1) in the top K
    cases = [
        ("linear", 1.0, {(0,): 0.0}, (0, 2, 5)),
        ("linear", 0.5, {(0,): -2.0, (1,): -5.0}, (0, 2, 5)),
        ("log", 2.0, {(0,): 0.0}, (0,)),
        ("log", 0.5, {(2,): -3.0}, (0,)),
    ]
    for tail, scale, table, tops in cases:
        pot = PotentialSpec(depth=1, tail_kind=tail, tail_scale=scale, table=table)
        for a in range(1, 7):
            for b in range(6):
                spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
                for top in tops:
                    core = covering_core(spec, range(top + 1))
                    for letter in {core.letters[0], core.letters[-1]}:
                        assert check_connect_lens(spec, pot, core, letter)


def test_cutoff_connect_lens_match_all_pairs_bfs_on_finite_shifts():
    rng = random.Random(4)
    reports = 0
    for _ in range(300):
        spec, core, pot = random_shift(rng)
        if spec.kind != "renewal":
            reports += sum(check_connect_lens(spec, pot, core, l) for l in core.letters)
    assert reports >= 100


def test_full_shift_stage_two_builds_no_least_walk_table():
    # the full core 0..K has an edge between every two letters, so its least walks are
    # all one edge long; only stage one's table is built
    rng = random.Random(40)
    reports = 0
    for n in range(1, 41):
        spec = ShiftSpec(kind="full", alphabet_size=n)
        for top in {0, rng.randrange(n), n - 1}:
            core = truncate(spec, top)
            depth = rng.randint(1, 2)
            words = [tuple(rng.randrange(n) for _ in range(depth)) for _ in range(3)]
            table = {w: rng.uniform(-3.0, 1.0) for w in words}
            scale = rng.uniform(0.3, 4.0)
            pot = PotentialSpec(depth=depth, tail_kind="linear", tail_scale=scale, table=table)
            for letter in {0, top}:
                with mock.patch.object(barrier, "least_exits", wraps=least_exits) as spy:
                    reports += check_connect_lens(spec, pot, core, letter)
                assert spy.call_count == 1
    assert reports >= 100


def test_full_shift_stage_two_keeps_the_core_size_check():
    # stage one asks for letters up to 601 of 1,000, inside the budget, but the core's
    # edges pass the size limit
    spec = ShiftSpec(kind="full", alphabet_size=1000)
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): -600.0})
    with pytest.raises(TruncationError) as info:
        letter_cutoff(spec, pot, truncate(spec, 3), 0)
    assert str(info.value) == "362404 edges among letters 0..601 exceed the size limit of 250000"


class CountingTable(dict):
    """A potential table that counts how often it is read whole."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_letter_floors_read_the_table_once_per_call():
    # one floor per letter of a stage-two core of hundreds of letters, from one read;
    # each report still equals its per-letter definition
    rng = random.Random(29)
    for rule in ((2, 0), (1, 1), (3, 2)):
        spec = ShiftSpec(kind="renewal", renewal_rule=rule)
        core = covering_core(spec, range(12))
        letters = rng.sample(range(40), 20)
        table = CountingTable({(j,): rng.uniform(-3.0, 0.0) for j in letters})
        pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table=table)
        graph = optimize(build_memory_graph(core, pot))
        table.reads = 0
        report = letter_cutoff(spec, pot, core, 0)
        assert table.reads <= 3  # the floors, then coercive_letter_bound twice
        table.reads = 0
        bounds = compute_barrier(graph).bounds
        assert table.reads <= 2  # the floors, then the low-letter cutoff

        local = max(n for n, _ in least_exits(0, core.pred).values())
        floor = min(inf_bound_on_letter(pot, i) for i in core.letters)
        assert report.excursion_cutoff == coercive_letter_bound(pot, min(local * floor, 0.0))
        assert report.wide_bound > 100
        assert check_connect_lens(spec, pot, core, 0)
        base = graph.critical_cycle[0][0]
        expected = {}
        for a in core.letters:
            word = oracle_connecting_word(core.succ, a, base)
            low = min(inf_bound_on_letter(pot, x) for x in {a, base, *word})
            expected[a] = (len(word) + 1) * (graph.max_mean - low)
        assert bounds.per_letter == expected


def test_per_letter_bounds_match_a_connecting_word_per_letter():
    rng = random.Random(8)
    for _ in range(300):
        _, core, pot = random_shift(rng)
        g = optimize(build_memory_graph(core, pot))
        base = g.critical_cycle[0][0]
        ambient = ambient_total_variation(pot)
        expected = {}
        for a in core.letters:
            word = oracle_connecting_word(core.succ, a, base)
            floor = min(inf_bound_on_letter(pot, x) for x in {a, base, *word})
            expected[a] = (len(word) + 1) * (g.max_mean - floor) + ambient
        assert compute_barrier(g).bounds.per_letter == expected


def uniform_cases(seed):
    """300 seeded graphs with weights uniform in [-1, 1], optimized, with barriers."""
    rng = random.Random(seed)
    cases = []
    for _ in range(300):
        weights = {e: rng.uniform(-1.0, 1.0) for e in random_graph(rng, rng.randint(2, 7))}
        g = optimize(graph_from_weights(weights))
        cases.append((weights, g, compute_barrier(g)))
    return cases


@pytest.mark.parametrize("shift", [1e6, 1e7, 1e8, 1e9])
def test_uniform_shift_moves_only_the_mean(shift):
    # a fixed 1e-9 tolerance is below one ulp of weights this large
    tol = 1e-9 + 64 * sys.float_info.epsilon * shift
    for weights, g, result in uniform_cases(17):
        moved = optimize(graph_from_weights({e: w + shift for e, w in weights.items()}))
        assert moved.critical_cycle == g.critical_cycle
        assert moved.critical_components == g.critical_components
        assert moved.max_mean == pytest.approx(g.max_mean + shift, abs=tol)
        values = compute_barrier(moved).values
        for v, x in result.values.items():
            assert values[v] == pytest.approx(x, abs=tol)


@pytest.mark.parametrize("scale", [1e-3, 0.5, 3.0, 1e3, 1e9])
def test_positive_scale_scales_mean_and_barrier(scale):
    for weights, g, result in uniform_cases(18):
        scaled = optimize(graph_from_weights({e: w * scale for e, w in weights.items()}))
        assert scaled.critical_cycle == g.critical_cycle
        assert scaled.critical_components == g.critical_components
        assert scaled.max_mean == pytest.approx(g.max_mean * scale, rel=1e-12, abs=1e-12 * scale)
        values = compute_barrier(scaled).values
        for v, x in result.values.items():
            assert values[v] == pytest.approx(x * scale, rel=1e-12, abs=1e-12 * scale)
