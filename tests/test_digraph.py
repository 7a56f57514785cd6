import sys

from hypothesis import given, settings, strategies as st

from peierls.digraph import strongly_connected_components

from oracles import oracle_components, predecessors


def components(succ):
    return strongly_connected_components(sorted(succ), succ, predecessors(succ))


def assert_partition_matches_oracle(succ):
    comps = components(succ)
    assert all(comp == sorted(comp) for comp in comps)
    assert sum(len(comp) for comp in comps) == len(succ)
    assert {frozenset(comp) for comp in comps} == oracle_components(succ)


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return {v: sorted(j for i, j in edges if i == v) for v in range(n)}


@settings(max_examples=300, deadline=None)
@given(succ=digraphs())
def test_components_match_mutual_reachability(succ):
    assert_partition_matches_oracle(succ)


def test_singletons_without_loops_and_self_loops():
    # 0 and 2 lie on no cycle; 1 loops; 3 <-> 4 is a two-cycle that 2 feeds
    succ = {0: [1], 1: [1, 2], 2: [3], 3: [4], 4: [3]}
    assert_partition_matches_oracle(succ)
    assert sorted(components(succ)) == [[0], [1], [2], [3, 4]]
    assert components({0: []}) == [[0]]


def test_deep_graphs_stay_within_the_default_recursion_limit():
    n = 20_000
    assert n > sys.getrecursionlimit()
    assert components({v: [(v + 1) % n] for v in range(n)}) == [list(range(n))]
    chain = components({v: [v + 1] if v + 1 < n else [] for v in range(n)})
    assert sorted(chain) == [[v] for v in range(n)]
