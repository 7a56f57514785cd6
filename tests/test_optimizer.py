import importlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from peierls import (
    GraphError,
    PositiveCycleError,
    PotentialSpec,
    ShiftSpec,
    birkhoff_sum,
    build_memory_graph,
    compute_barrier,
    covering_core,
    graph_from_weights,
    max_mean_cycle,
    optimize,
    periodic_measure,
    var_j,
    verify_subaction,
)
from peierls import optimizer
from peierls.optimizer import DEFAULT_TOL, _certified, _howard, _longest_walk, _rounding_tol
from peierls.shift_space import FiniteShift

from oracles import (
    oracle_canonical_cycle,
    oracle_components,
    oracle_critical_edges,
    oracle_karp_max_mean,
    oracle_max_mean,
    random_graph,
    simple_cycles,
)


def offset_weights(seed, draw):
    """A seeded random graph whose weights are ``draw(rng)`` plus 1e12."""
    rng = random.Random(seed)
    return {e: draw(rng) + 1e12 for e in random_graph(rng, rng.randint(2, 14))}


def test_graph_from_weights_structure():
    g = graph_from_weights({(0, 1): 1.0, (1, 0): -1.0, (0, 0): 0.5})
    assert g.vertices == (0, 1)
    assert g.succ[0] == (0, 1)
    assert g.pred[0] == (0, 1)
    assert g.weights == {(0, 0): 0.5, (0, 1): 1.0, (1, 0): -1.0}
    assert not g.is_optimized()


def test_graph_from_weights_rejects_empty():
    with pytest.raises(GraphError):
        graph_from_weights({})


def test_memory_graph_depth_one_weighs_source_letter(gm_finite):
    pot = PotentialSpec(
        depth=1, tail_kind="linear", tail_scale=1.0, table={(1,): -4.0}
    )
    g = build_memory_graph(gm_finite, pot)
    assert g.vertices == ((0,), (1,))
    assert g.weights[((0,), (1,))] == 0.0
    assert g.weights[((1,), (0,))] == -4.0


def test_memory_graph_depth_two_weighs_transition(gm_finite):
    pot = PotentialSpec(
        depth=2,
        tail_kind="linear",
        tail_scale=1.0,
        table={(0, 0): 0.0, (0, 1): 3.0, (1, 0): -1.0},
    )
    g = build_memory_graph(gm_finite, pot)
    assert g.vertices == ((0,), (1,))
    assert g.weights[((0,), (1,))] == 3.0
    assert g.weights[((1,), (0,))] == -1.0


def test_memory_graph_depth_three_vertices_are_two_letter_words(gm_finite):
    pot = PotentialSpec(depth=3, tail_kind="linear", tail_scale=1.0)
    g = build_memory_graph(gm_finite, pot)
    assert g.vertices == ((0, 0), (0, 1), (1, 0))
    assert set(g.succ[(1, 0)]) == {(0, 0), (0, 1)}
    assert g.succ[(0, 1)] == ((1, 0),)


def test_words_past_the_size_limit_are_refused_before_they_are_built():
    # on a 2-letter full shift, 2^18 is the first count past 250,000: the edges of a
    # depth-18 graph on its 2^17 vertices, and the depth words var_j reads
    two = covering_core(ShiftSpec(kind="full", alphabet_size=2), range(2))
    deep = PotentialSpec(depth=18, tail_kind="linear", tail_scale=1.0)
    limit = "exceed the size limit of 250000"
    with pytest.raises(GraphError, match=f"^262144 memory-graph edges {limit}$"):
        build_memory_graph(two, deep)
    with pytest.raises(ValueError, match=f"^262144 words of length 18 {limit}$"):
        var_j(deep, two, 1)
    with pytest.raises(ValueError, match=f"^262144 words of length 18 {limit}$"):
        build_memory_graph(two, deep._replace(depth=19))


def test_memory_graph_needs_a_word_of_the_memory_length():
    # two letters and no edge: no word of length 2, the memory length at depth 3
    stuck = FiniteShift((0, 1), {0: (), 1: ()}, {0: (), 1: ()})
    pot = PotentialSpec(depth=3, tail_kind="linear", tail_scale=1.0)
    with pytest.raises(GraphError, match="^the truncation admits no words of the memory length$"):
        build_memory_graph(stuck, pot)


def test_optimize_golden_mean(gm_graph):
    assert gm_graph.max_mean == 0.0
    assert gm_graph.critical_cycle == ((0,),)
    assert gm_graph.critical_class == frozenset({((0,))})
    assert gm_graph.critical_class_unique is True


def test_optimize_requires_strong_connectivity():
    g = graph_from_weights({(0, 1): 1.0, (1, 1): 0.0})
    with pytest.raises(GraphError):
        optimize(g)


def test_optimize_rejects_a_lone_vertex_without_a_loop():
    g = graph_from_weights({(0, 0): 0.0})._replace(weights={}, succ={0: ()}, pred={0: ()})
    with pytest.raises(GraphError):
        optimize(g)


def test_optimize_rejects_a_graph_without_vertices():
    g = graph_from_weights({(0, 0): 0.0})._replace(vertices=(), weights={}, succ={}, pred={})
    with pytest.raises(GraphError, match="^graph has no vertices$"):
        optimize(g)


def test_canonical_cycle_prefers_girth_then_smallest_vertex():
    g = graph_from_weights(
        {(0, 1): 1.0, (1, 0): -1.0, (1, 1): 0.0, (2, 2): 0.0, (1, 2): -5.0, (2, 0): -5.0}
    )
    mean, cycle = max_mean_cycle(g)
    assert mean == 0.0
    # three cycles tie at mean zero; the girth-one ones win, then vertex order
    assert cycle == (1,)


def test_canonical_cycle_matches_cycle_enumeration_on_tie_heavy_graphs():
    # weights from {-1, 0, 0} leave many tied critical cycles
    rng = random.Random(20261017)
    wide = 0
    for _ in range(300):
        weights = {e: rng.choice((-1, 0, 0)) for e in random_graph(rng, rng.randint(1, 7))}
        g = optimize(graph_from_weights(weights))
        cycle = g.critical_cycle
        assert (len(cycle), cycle) == oracle_canonical_cycle(g.critical_edges)
        wide += len(g.critical_class) > 2
    assert wide >= 100


@st.composite
def tight_edge_sets(draw):
    """Edges on up to 8 vertices: any set, or one out-edge per vertex, with or without loops."""
    n = draw(st.integers(min_value=1, max_value=8))
    vertex = st.integers(0, n - 1)
    if draw(st.booleans()):
        return draw(st.sets(st.tuples(vertex, vertex), min_size=1, max_size=3 * n))
    loops = draw(st.booleans())
    targets = [draw(vertex) for _ in range(n)]
    return {(v, t if loops or t != v else (v + 1) % n) for v, t in enumerate(targets)}


@settings(max_examples=400, deadline=None)
@given(edges=tight_edge_sets())
def test_canonical_cycle_is_the_shortest_least_cycle_of_the_tight_edges(edges):
    # at mean 0 and h = 0 the edges of weight 0 are the tight ones; a ring of weight -1
    # where they leave it out makes the graph strongly connected, as _certified asks
    n = 1 + max(max(edge) for edge in edges)
    ring = {(v, (v + 1) % n): -1.0 for v in range(n)}
    graph = graph_from_weights(ring | dict.fromkeys(edges, 0.0))
    if not any(True for _ in simple_cycles(edges)):
        with pytest.raises(GraphError, match="contains no cycle"):
            _certified(graph, 0.0, [0.0] * n, 0.0)
        return
    cycle = _certified(graph, 0.0, [0.0] * n, 0.0).critical_cycle
    assert (len(cycle), cycle) == oracle_canonical_cycle(edges)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_canonical_cycle_of_a_loopless_tie_heavy_graph_matches_cycle_enumeration(seed):
    # without a loop every critical vertex searches for its least cycle, each search stopped
    # short of the shortest cycle found so far
    rng = random.Random(seed)
    edges = random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.6)))
    g = optimize(graph_from_weights({(u, v): rng.choice((-1, 0, 0)) for u, v in edges if u != v}))
    cycle = g.critical_cycle
    assert (len(cycle), cycle) == oracle_canonical_cycle(g.critical_edges)


def test_canonical_cycle_of_a_complete_loopless_class_ends_within_its_time_budget():
    # the first search finds a 2-cycle, and no later vertex can beat it: searching each
    # vertex's least cycle in full took about 2 s on 300 vertices
    n = 300
    graph = graph_from_weights({(u, v): 0.0 for u in range(n) for v in range(n) if u != v})
    mean, h = _howard(graph, DEFAULT_TOL)
    started = time.perf_counter()
    certified = _certified(graph, mean, h, DEFAULT_TOL)
    assert time.perf_counter() - started < 0.5
    assert certified.critical_cycle == (0, 1) and len(certified.critical_edges) == n * (n - 1)


@pytest.mark.parametrize(
    "weights, cycle",
    [
        ({(i, (i + 1) % 200): 0.0 for i in range(200)} | {(5, 0): -1.0}, tuple(range(200))),
        # two disjoint critical cycles: the shorter one wins, read from its least vertex
        (
            {(0, 1): 0.0, (1, 2): 0.0, (2, 0): 0.0, (3, 4): 0.0, (4, 3): 0.0}
            | {(2, 3): -1.0, (3, 0): -1.0},
            (3, 4),
        ),
        ({(0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0, (2, 2): 0.0, (2, 0): -1.0, (0, 2): -1.0}, (1,)),
    ],
    ids=["200-ring", "disjoint-cycles", "looped-class"],
)
def test_optimize_finds_these_canonical_cycles_without_a_walk_search(monkeypatch, weights, cycle):
    monkeypatch.setattr(optimizer, "least_word", None)  # a call would raise TypeError
    assert optimize(graph_from_weights(weights)).critical_cycle == cycle


@pytest.mark.parametrize(
    "weights, cycle, built",
    [
        ({(0, 1): 0.0, (1, 0): 0.0}, (0, 1), 0),  # every edge is tight: the graph's own maps
        ({(0, 0): 0.0, (0, 1): -1.0, (1, 0): -1.0}, (0,), 1),  # 1 -> 0 is tight, not critical
    ],
    ids=["all-tight", "loop-and-tail"],
)
def test_certified_builds_at_most_the_tight_adjacency(monkeypatch, weights, cycle, built):
    graph = graph_from_weights(weights)
    mean, h = optimize(graph).certificate
    calls, adjacent = [], optimizer._adjacent
    monkeypatch.setattr(optimizer, "_adjacent", lambda *args: calls.append(args) or adjacent(*args))
    assert _certified(graph, mean, h, DEFAULT_TOL).critical_cycle == cycle
    assert len(calls) == built


def test_optimize_returns_a_new_frozen_graph():
    g = graph_from_weights({(0, 1): 3.0, (1, 0): -1.0})
    optimized = optimize(g)
    assert optimized is not g
    assert optimized.is_optimized()
    assert not g.is_optimized()
    with pytest.raises(AttributeError):
        g.max_mean = 1.0
    assert g.max_mean is None


def test_word_keyed_maps_refuse_every_write():
    # the passes read the numbering behind these maps, so a write would split the two
    g = optimize(graph_from_weights({(0, 1): 0.0, (1, 0): 0.0, (1, 1): -1.0}))
    writes = [
        lambda m, k: m.__setitem__(k, m[k]),
        lambda m, k: m.__delitem__(k),
        lambda m, k: m.update({k: m[k]}),
        lambda m, k: m.setdefault("missing", m[k]),  # a present key is only read
        lambda m, k: m.pop(k),
        lambda m, k: m.popitem(),
        lambda m, k: m.clear(),
        lambda m, k: m.__ior__({k: m[k]}),
    ]
    for view, key in ((g.weights, (1, 1)), (g.succ, 0), (g.pred, 1)):
        before = dict(view)
        for write in writes:
            with pytest.raises(TypeError, match="read-only"):
                write(view, key)
        assert view == before and repr(view) == repr(before)
        copy = dict(view)
        del copy[key]  # a copy stays writable
    assert verify_subaction(g, compute_barrier(g).values).is_subaction


def test_two_critical_components_are_both_reported(two_class_graph):
    assert two_class_graph.critical_components == ((0,), (1,))
    assert two_class_graph.critical_class_unique is False
    assert two_class_graph.critical_edges == frozenset({((0), (0)), ((1), (1))})


def test_unique_class_needs_single_tight_successor():
    # both edges of the two-cycle stay tight and a tight chord enters vertex 0
    g = graph_from_weights({(0, 1): 1.0, (1, 0): -1.0, (0, 0): 0.0})
    g = optimize(g)
    assert g.critical_class == frozenset({0, 1})
    assert g.critical_class_unique is False


def test_unique_class_is_one_component_with_one_critical_out_edge_per_vertex():
    # weights from {-1, 0, 0} tie many cycles, so both answers occur often
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        weights = {e: rng.choice((-1, 0, 0)) for e in random_graph(rng, rng.randint(1, 7))}
        edges = oracle_critical_edges(weights, oracle_max_mean(weights))
        succ = {v: {t for u, t in edges if u == v} for edge in edges for v in edge}
        unique = len(oracle_components(succ)) == 1 and all(len(t) == 1 for t in succ.values())
        assert optimize(graph_from_weights(weights)).critical_class_unique is unique
        seen.add(unique)
    assert seen == {True, False}


def test_max_mean_matches_cycle_enumeration_on_seeded_graphs():
    rng = random.Random(20260501)
    for _ in range(60):
        n = rng.randint(1, 8)
        weights = random_graph(rng, n)
        g = graph_from_weights(weights)
        mean, cycle = max_mean_cycle(g)
        assert mean == pytest.approx(oracle_max_mean(weights), abs=1e-9)
        closed = list(cycle) + [cycle[0]]
        exact = Fraction(0)
        for u, v in zip(closed, closed[1:]):
            exact += Fraction(weights[(u, v)])
        assert mean == float(exact / len(cycle))


def test_critical_structure_matches_karp_and_floyd_warshall_on_larger_graphs():
    # beyond the reach of cycle enumeration; half the graphs are tie-heavy
    rng = random.Random(20261018)
    for k in range(200):
        weights = random_graph(rng, rng.randint(9, 40))
        if k % 2:
            weights = {e: rng.choice((-1, 0, 0)) for e in weights}
        g = optimize(graph_from_weights(weights))
        assert g.max_mean == pytest.approx(oracle_karp_max_mean(weights), abs=1e-9)
        assert g.critical_edges == oracle_critical_edges(weights, g.max_mean)


def test_policy_iteration_leaves_a_greedy_start():
    # the heaviest out-edges 0 -> 1 and 1 -> 1 close the loop of mean -1 at 1;
    # the bias moves 0 onto its own loop, then 1 follows it to the mean 0
    g = optimize(graph_from_weights({(0, 1): 5.0, (1, 0): -10.0, (0, 0): 0.0, (1, 1): -1.0}))
    assert g.max_mean == 0.0
    assert g.critical_cycle == (0,)
    assert g.critical_components == ((0,),)
    assert g.critical_edges == frozenset({(0, 0)})
    assert g.critical_class_unique is True


def test_positive_cycle_guard_trips():
    # a stated mean of 0 below the true mean 1 leaves the two-cycle positive
    g = optimize(graph_from_weights({(0, 1): 1.0, (1, 0): 1.0}))._replace(max_mean=0.0)
    with pytest.raises(PositiveCycleError):
        _longest_walk(g, {0: 0.0})


def test_policy_iteration_names_the_iteration_whose_policy_repeats():
    # with the tolerance of the raw weights near 1e12, the mean phase and the
    # bias phase of this graph undo each other; a repeat is proof of a cycle
    graph = graph_from_weights(offset_weights(1835, lambda rng: rng.uniform(-1, 1)))
    with pytest.raises(GraphError, match="the policy of iteration 6 repeats iteration 2"):
        _howard(graph, _rounding_tol(graph, DEFAULT_TOL))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_optimize_returns_on_graphs_shifted_by_1e12(seed):
    # multiples of 1/64 keep every walk sum exact, so Karp's mean is off by one rounding at most
    weights = offset_weights(seed, lambda rng: rng.randint(-64, 64) / 64)
    graph = graph_from_weights(weights)
    deviation = abs(optimize(graph).max_mean - oracle_karp_max_mean(weights))
    assert deviation <= _rounding_tol(graph, DEFAULT_TOL)


def test_optimize_rejects_a_subaction_that_does_not_certify_the_mean(monkeypatch):
    # the two-cycle has mean 1; a claimed mean 0 with a flat subaction is beaten on 0 -> 1
    monkeypatch.setattr(optimizer, "_howard", lambda graph, tol: (0.0, {0: 0.0, 1: 0.0}))
    with pytest.raises(GraphError, match=r"m is not certified: edge 0 -> 1 beats it by 3\.0"):
        optimize(graph_from_weights({(0, 1): 3.0, (1, 0): -1.0}))


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_rejected(tol):
    # renewal (1,1), table value -5 at letters 0..3: m = -8/3 on [0, 2, 1]; with
    # tol = inf every edge looked tight and optimize reported m = -5 on [0]
    spec = ShiftSpec(kind="renewal", renewal_rule=(1, 1))
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): -5.0})
    graph = build_memory_graph(covering_core(spec, range(4)), pot)
    assert optimize(graph).critical_cycle == ((0,), (2,), (1,))
    with pytest.raises(GraphError, match="tolerance must be finite and nonnegative"):
        optimize(graph, tol)
    assert optimize(graph, 0.0).max_mean == pytest.approx(-8 / 3)


def test_birkhoff_sum_and_missing_edge(gm_graph):
    assert birkhoff_sum(gm_graph, [(0,), (1,), (0,)]) == -1.0
    with pytest.raises(GraphError):
        birkhoff_sum(gm_graph, [(1,), (1,)])


def test_periodic_measure_averages_cycle():
    g = graph_from_weights({(0, 1): 3.0, (1, 0): -1.0})
    g = optimize(g)
    mu = periodic_measure(g, g.critical_cycle)
    assert mu.f_integral == pytest.approx(1.0)
    assert mu.weights == (0.5, 0.5)
    assert mu.expect(lambda v: float(v)) == pytest.approx(0.5)
    with pytest.raises(GraphError):
        periodic_measure(g, [])


def test_the_cycle_mean_adds_its_weights_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right Birkhoff sum is 0.0; the
    # compensated built-in sum of Python 3.12 and later made m 1/3 and left f_integral 0.0
    g = optimize(graph_from_weights({(0, 1): 1e16, (1, 2): 1.0, (2, 0): -1e16}))
    assert g.max_mean == 0.0
    assert g.max_mean == periodic_measure(g, g.critical_cycle).f_integral


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_optimize_invariants_on_random_graphs(seed):
    rng = random.Random(seed)
    weights = random_graph(rng, rng.randint(1, 7))
    g = graph_from_weights(weights)
    g = optimize(g)
    m = g.max_mean
    # the extracted cycle realizes the mean and lies inside the class
    cycle = g.critical_cycle
    closed = list(cycle) + [cycle[0]]
    assert birkhoff_sum(g, closed) / len(cycle) == pytest.approx(m, abs=1e-9)
    assert set(cycle) <= g.critical_class
    for u, v in g.critical_edges:
        assert u in g.critical_class and v in g.critical_class
    # no cycle in the graph beats the reported mean
    assert m >= oracle_max_mean(weights) - 1e-9


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_words_and_bare_integers_number_alike(seed):
    # a graph numbers its vertices in sorted order, and (0,) < (1,) < ... sorts as 0 < 1 < ...
    # does, so the same weights on either give the same floats, bit for bit
    rng = random.Random(seed)
    ints = {e: rng.uniform(-1, 1) for e in random_graph(rng, rng.randint(1, 9))}
    words = {((u,), (v,)): w for (u, v), w in ints.items()}
    a, b = optimize(graph_from_weights(ints)), optimize(graph_from_weights(words))
    assert b.max_mean.hex() == a.max_mean.hex()
    assert b.critical_cycle == tuple((v,) for v in a.critical_cycle)
    assert b.critical_edges == {((u,), (v,)) for u, v in a.critical_edges}
    values = compute_barrier(a).values
    assert {v: x.hex() for v, x in compute_barrier(b).values.items()} == {
        (v,): x.hex() for v, x in values.items()
    }
    assert abs(a.max_mean - oracle_max_mean(ints)) <= a.tol


@pytest.mark.parametrize(
    "module, name",
    [
        ("optimizer", "WeightedMemoryGraph"),
        ("optimizer", "PeriodicMeasure"),
        ("barrier", "UpperBoundReport"),
        ("optimizer", "BarrierResult"),
        ("barrier", "CutoffReport"),
        ("subaction", "SubactionReport"),
        ("calibration", "PreorbitReport"),
        ("calibration", "MinimalityReport"),
        ("subaction", "ComparisonReport"),
        ("subaction", "UniquenessReport"),
        ("calibration", "VariationReport"),
        ("truncation", "Stage"),
        ("truncation", "TruncationFamily"),
        ("truncation", "LetterStabilization"),
        ("truncation", "StabilizationReport"),
        ("truncation", "BoundednessProbe"),
    ],
)
def test_records_reject_attribute_assignment(module, name):
    record_type = getattr(importlib.import_module(f"peierls.{module}"), name)
    record = record_type(*range(len(record_type._fields)))
    for field in record_type._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == record._replace()
