"""Maximizing cycles of the weighted memory graph.

The memory graph turns Birkhoff sums of a finite-memory potential into
walk weights: vertices are admissible words of length max(depth-1, 1) and
an edge carries the potential's value on the depth-k word its endpoints
generate.  The ergodic maximum m is then the maximum cycle-mean weight,
found by Howard's max-plus policy iteration (Cochet-Terrasson, Cohen,
Gaubert, McGettrick and Quadrat 1998), and the critical class collects
every vertex on a cycle whose mean attains m.  ``optimize`` returns a new
graph carrying these results and leaves its argument unchanged, and
``compute_barrier`` walks it from the canonical cycle's base.

A graph numbers its vertices once, in sorted order, for every pass to read;
words come back only in the results.  Vertices only need to be hashable and
mutually sortable: library callers use letter words, tests bare integers.
"""

from __future__ import annotations

import math
import sys
from collections import UserDict
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from . import DEFAULT_TOL
from .digraph import least_word, reaches_all, strongly_connected_components
from .potential import PotentialSpec, admissible_words, evaluate
from .shift_space import FiniteShift, _within_limit

if TYPE_CHECKING:
    from .barrier import UpperBoundReport

Vertex = Any
Edge = tuple[Vertex, Vertex]


class GraphError(ValueError):
    """The graph violates a structural precondition."""


class PositiveCycleError(GraphError):
    """A reduced cycle with positive weight survived; the mean value is inconsistent."""


class _Numbered(NamedTuple):
    """A graph by vertex number: edge e, in sorted order, runs from ``sources[e]`` to ``targets[e]``
    with weight ``weights[e]``, u's out-edges are ``starts[u]`` up to ``starts[u + 1]``."""

    words: tuple[Vertex, ...]
    index: dict[Vertex, int]
    sources: list[int]
    targets: list[int]
    weights: list[float]
    starts: list[int]
    succ: list[list[int]]
    pred: list[list[int]]


class _View(UserDict):
    """A read-only word-keyed map of a numbered graph, built in full when it is first read:
    every pass reads the numbering, so a write would split the two."""

    def __init__(self, num: _Numbered, build: Callable[[], dict]) -> None:
        self.num, self._build = num, build

    @cached_property
    def data(self) -> dict:
        return self._build()

    def _read_only(self, *args: Any) -> None:  # UserDict's other writers call the first two
        raise TypeError("a graph's word-keyed maps are read-only; copy one with dict()")

    __setitem__ = __delitem__ = __ior__ = _read_only


class WeightedMemoryGraph(NamedTuple):
    """Finite weighted digraph plus the optimization results, once computed.

    ``optimize`` returns a copy with the ``max_mean`` / ``critical_*`` fields set, ``tol``,
    its ``tol`` raised to the float rounding of a |V|-edge walk sum: the one tolerance every
    later pass on the graph reads, and ``certificate``, Howard's mean and subaction h in
    ``vertices`` order, which decided them.  The graph it was given stays as is.
    The passes read the numbering behind ``weights``; ``weights``, ``succ`` and ``pred``
    are word-keyed views of it, each built when it is first read.
    """

    vertices: tuple[Vertex, ...]
    weights: Mapping[Edge, float]
    succ: Mapping[Vertex, tuple[Vertex, ...]]
    pred: Mapping[Vertex, tuple[Vertex, ...]]
    shift: FiniteShift | None = None
    pot: PotentialSpec | None = None
    max_mean: float | None = None
    critical_cycle: tuple[Vertex, ...] | None = None
    critical_class: frozenset = frozenset()
    critical_edges: frozenset = frozenset()
    critical_components: tuple[tuple[Vertex, ...], ...] = ()
    critical_class_unique: bool | None = None
    tol: float | None = None
    certificate: tuple[float, tuple[float, ...]] | None = None

    def is_optimized(self) -> bool:
        return self.max_mean is not None


def _adjacent(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[list[int]], ...]:
    """Successors and predecessors of vertices 0..n-1, from number pairs in sorted order."""
    succ, pred = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in pairs:
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def _graph(verts: tuple[Vertex, ...], edges: Iterable[tuple[Edge, float]], **fields: Any):
    """The graph on ``verts``, sorted, whose (edge, weight) pairs come in sorted order: numbered
    once, in vertex order; its ``weights``, ``succ`` and ``pred`` are views built when read."""
    index, sources, targets, weights = {v: i for i, v in enumerate(verts)}, [], [], []
    for (u, v), w in edges:
        sources.append(index[u])
        targets.append(index[v])
        weights.append(w)
    succ, pred = _adjacent(len(verts), zip(sources, targets))
    starts = [0, *accumulate(map(len, succ))]
    num = _Numbered(verts, index, sources, targets, weights, starts, succ, pred)
    near = lambda ns: lambda: {v: tuple(verts[t] for t in ns[u]) for u, v in enumerate(verts)}
    pairs = lambda: {(verts[u], verts[v]): w for u, v, w in zip(sources, targets, weights)}
    views = (_View(num, build) for build in (pairs, near(succ), near(pred)))
    return WeightedMemoryGraph(verts, *views, **fields)


def _numbered(graph: WeightedMemoryGraph) -> _Numbered:
    """The numbering behind ``graph``'s views, or a new one of plain maps on sorted vertices."""
    w = graph.weights
    return w.num if isinstance(w, _View) else _graph(graph.vertices, sorted(w.items())).weights.num


def _edge(num: _Numbered, u: int, v: int) -> int:
    """The number of the edge u -> v; ValueError when there is none."""
    return num.targets.index(v, num.starts[u], num.starts[u + 1])


def graph_from_weights(weights: Mapping[Edge, float]) -> WeightedMemoryGraph:
    """Assemble a graph from an explicit edge-weight map (test entry point)."""
    if not weights:
        raise GraphError("graph needs at least one edge")
    verts = tuple(sorted({u for u, _ in weights} | {v for _, v in weights}))
    return _graph(verts, [(edge, float(w)) for edge, w in sorted(weights.items())])


def build_memory_graph(finite: FiniteShift, pot: PotentialSpec) -> WeightedMemoryGraph:
    """Depth-k encoding of a finite shift: walk weights are Birkhoff sums."""
    k = pot.depth
    vlen = max(k - 1, 1)
    verts = tuple(admissible_words(finite, vlen))
    if not verts:
        raise GraphError("the truncation admits no words of the memory length")
    _within_limit(sum(len(finite.succ[u[-1]]) for u in verts), "memory-graph edges", GraphError)
    edges = (  # in sorted order: the words are sorted, and so is each successor list
        ((u, u[1:] + (letter,) if k >= 2 else (letter,)), evaluate(pot, u + (letter,)))
        for u in verts
        for letter in finite.succ[u[-1]]
    )
    return _graph(verts, edges, shift=finite, pot=pot)


def _checked_tol(tol: float) -> float:
    """``tol`` itself, once it is a finite nonnegative number."""
    if not 0 <= tol < math.inf:
        raise GraphError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def _rounding_tol(graph: WeightedMemoryGraph, tol: float, top: float = 0.0) -> float:
    """``tol``, raised to the float rounding of a |V|-edge walk sum of the weights less ``top``."""
    scale = max((abs(w - top) for w in _numbered(graph).weights), default=0.0)
    return max(_checked_tol(tol), 4 * len(graph.vertices) * sys.float_info.epsilon * scale)


def _require_optimized(graph: WeightedMemoryGraph) -> float:
    """The tolerance of a graph ``optimize`` returned; GraphError for others."""
    if not graph.is_optimized():
        raise GraphError("graph is not optimized; pass it through optimize first")
    return graph.tol


def _howard(graph: WeightedMemoryGraph, tol: float) -> tuple[float, list[float]]:
    """Max-plus policy iteration: the maximum mean m and a subaction h = -x at m, by number.

    A policy picks one out-edge per vertex, the heaviest first.  Each vertex gets the
    mean eta of the policy cycle it runs into and a bias x on the way, 0 at that cycle's
    least vertex.  A vertex switches to a successor of larger eta or, once none has one,
    of larger bias, if the gain passes the tolerance; at the end x[u] >= w - m + x[v].
    A policy that comes back would come back forever, so it raises ``GraphError``.
    """
    num = _numbered(graph)
    n, sources, targets, starts = len(num.words), num.sources, num.targets, num.starts
    if not all(num.succ):
        raise GraphError("a vertex without out-edges lies on no cycle")
    # Shifted to a top weight of 0, the weights set the tolerance by their spread, not
    # their size: at 1e12 a size-based one let the two phases undo each other forever.
    top = max(num.weights)
    weights, tol = [w - top for w in num.weights], _rounding_tol(graph, tol, top)
    # the heaviest of u's out-edges, starts[u] up to starts[u + 1]; the least target on ties
    policy = [weights.index(max(weights[a:b]), a, b) for a, b in zip(starts, starts[1:])]

    def switch(gains: list[float], floor: list[float]) -> bool:
        """Each vertex whose best out-edge gains more than ``tol`` over its floor takes it."""
        switched = False
        for i in {u for u, g in zip(sources, gains) if g > floor[u] + tol}:  # and maybe more
            a, b = starts[i], starts[i + 1]
            if max(gains[a:b]) > floor[i] + tol:
                policy[i], switched = gains.index(max(gains[a:b]), a, b), True
        return switched

    seen: dict[tuple[int, ...], int] = {}  # each policy run so far -> its iteration, from 1
    while (key := tuple(policy)) not in seen:
        seen[key] = len(seen) + 1
        nxt = [targets[e] for e in policy]
        step = [weights[e] for e in policy]
        eta, x, walked = [math.nan] * n, [0.0] * n, [-1] * n
        for start in range(n):
            path, v = [], start
            while math.isnan(eta[v]) and walked[v] != start:
                walked[v] = start
                path.append(v)
                v = nxt[v]
            if math.isnan(eta[v]):  # the walk closed a new policy cycle at v
                cycle = path[path.index(v) :]
                first = cycle.index(min(cycle))
                eta[cycle[first]] = reduce(add, (step[u] for u in cycle), 0.0) / len(cycle)
                # the rest of the cycle, so the reverse pass starts just behind its least vertex
                path[path.index(v) :] = cycle[first + 1 :] + cycle[:first]
            for u in reversed(path):
                eta[u] = eta[nxt[u]]
                x[u] = step[u] - eta[u] + x[nxt[u]]
        if not switch([eta[t] for t in targets], eta):  # first on the cycle mean, then the bias
            gains = [
                w - eta[u] + x[t] if eta[t] >= eta[u] - tol else -math.inf
                for u, t, w in zip(sources, targets, weights)
            ]
            if not switch(gains, x):
                return max(eta) + top, [-b for b in x]
    raise GraphError(f"the policy of iteration {len(seen) + 1} repeats iteration {seen[key]}")


def _longest_walk(graph: WeightedMemoryGraph, seeds: Mapping[Vertex, float]) -> dict[Vertex, float]:
    """Maximum reduced-weight walk values from the seeded vertices.

    Bellman-Ford relaxation on the weights minus the graph's maximum mean;
    with all reduced cycle weights nonpositive the optimum is attained on
    simple paths, so |V|-1 sweeps suffice.  A final check sweep turns any
    surviving improvement above the tolerance into ``PositiveCycleError``,
    and a vertex no seed reaches into ``GraphError``, which names float overflow
    when an edge from a reached vertex still leaves it at -inf.
    """
    num = _numbered(graph)
    values = [-math.inf] * len(num.words)
    for v, s in seeds.items():
        if v not in num.index:
            raise GraphError(f"seed vertex {v!r} is not in the graph")
        values[num.index[v]] = float(s)
    m, tol, words = graph.max_mean, _require_optimized(graph), num.words
    edges = num.sources, num.targets, [w - m for w in num.weights]  # in sorted order
    for _ in range(len(values) - 1):
        changed = False
        for u, v, r in zip(*edges):  # an unreached u gives -inf, or nan for w = inf: both lose
            cand = values[u] + r
            if cand > values[v]:
                values[v] = cand
                changed = True
        if not changed:
            break
    for u, v, r in zip(*edges):
        if values[u] + r > values[v] + tol:
            raise PositiveCycleError(
                f"reduced cycle with positive weight through edge {words[u]!r} -> {words[v]!r}"
            )
    stuck = [v for v, x in enumerate(values) if x == -math.inf]
    if stuck:
        # an edge from a reached vertex adds up to -inf only past the float range
        overflow = any(values[u] > -math.inf for v in stuck for u in num.pred[v])
        why = " (their walk weights overflow the float range to -inf)" if overflow else ""
        stuck = [words[v] for v in stuck[:4]]
        raise GraphError(f"vertices unreachable from the seeds: {stuck}{why}")
    return dict(zip(words, values))


class BarrierResult(NamedTuple):
    """Barrier values of an optimized graph, pinned to zero at the base vertex.

    ``bounds`` is built from ``graph`` each time it is read, None without a shift and a
    potential."""

    base_vertex: Vertex
    values: Mapping[Vertex, float]
    graph: WeightedMemoryGraph

    @property
    def bounds(self) -> UpperBoundReport | None:
        from .barrier import _bound_report  # the bounds' layer loads when they are read

        graph = self.graph
        return None if graph.shift is None or graph.pot is None else _bound_report(graph, self.values)


def compute_barrier(graph: WeightedMemoryGraph) -> BarrierResult:
    """Barrier values from the canonical cycle's base vertex, base pinned to 0.0.

    The barrier value at a vertex is the supremum, over all finite walks from
    the base vertex, of the walk's weight after subtracting the maximum cycle
    mean from every edge.  On a strongly connected graph the supremum is
    attained by a simple path: any walk that revisits a vertex contains a
    cycle, the cycle's reduced weight is at most zero, and cutting it out
    never lowers the total.  So ``_longest_walk`` computes the barrier exactly,
    and the base, the canonical cycle's starting phase, gets zero: no reduced
    walk from it back to itself is positive.
    """
    _require_optimized(graph)
    base = graph.critical_cycle[0]
    raw = _longest_walk(graph, {base: 0.0})
    shift = raw[base]
    values = {v: (x - shift) + 0.0 for v, x in raw.items()}
    return BarrierResult(base_vertex=base, values=values, graph=graph)


def _certified(
    graph: WeightedMemoryGraph, mean: float, h: Sequence[float], tol: float
) -> WeightedMemoryGraph:
    """The optimum that Howard's ``mean`` and subaction ``h``, by vertex number, prove on
    ``graph``, strongly connected, decided at ``tol`` raised by ``_rounding_tol``.

    h[u] + (w - mean) <= h[v] on every edge, within the rounding, certifies that no cycle
    beats ``mean``; an edge that beats it, or an h of another length or not finite, raises
    ``GraphError``.  The edges that meet it within the rounding are tight.  The critical
    components are the strongly connected pieces of the tight edges that hold a cycle, the
    critical edges the tight edges inside them.  The canonical cycle is their shortest cycle, least
    on ties, in O(|V| |E|) at worst (``GraphError`` when there is none); m is its mean weight.  The
    class is unique when it is one component whose vertices each have one critical out-edge.
    """
    num = _numbered(graph)
    n, words, sources, targets = len(num.words), num.words, num.sources, num.targets
    if len(h) != n or not all(map(math.isfinite, h)):
        raise GraphError(f"a certificate needs a finite value at each of {n} vertices")
    rounding, tight, excess = _rounding_tol(graph, tol), [], {}
    for e, (u, v, w) in enumerate(zip(sources, targets, num.weights)):
        reach = h[u] + (w - mean)
        if reach > h[v] + rounding:
            excess[e] = reach - h[v]
        elif reach >= h[v] - rounding:
            tight.append(e)
    if excess:
        e = max(excess, key=excess.get)
        u, v = words[sources[e]], words[targets[e]]
        raise GraphError(f"m is not certified: edge {u!r} -> {v!r} beats it by {excess[e]!r}")
    ends = lambda edges: [(sources[e], targets[e]) for e in edges]
    whole = len(tight) == len(sources)  # then the graph is the one component
    succ, pred = (num.succ, num.pred) if whole else _adjacent(n, ends(tight))
    comps = [list(range(n))] if whole else strongly_connected_components(range(n), succ, pred)
    critical = sorted(comp for comp in comps if len(comp) > 1 or comp[0] in succ[comp[0]])
    if not critical:
        raise GraphError("critical class contains no cycle")
    comp_of = {v: idx for idx, comp in enumerate(critical) for v in comp}
    edges = [e for e in tight if comp_of.get(sources[e], -1) == comp_of.get(targets[e])]
    one_each = len(edges) == len(comp_of)  # each critical vertex has at least one critical out-edge
    if one_each:  # the class is disjoint simple cycles: the shortest, read from its least vertex
        step, cycle = dict(ends(edges)), [min(critical, key=len)[0]]
        while (v := step[cycle[-1]]) != cycle[0]:
            cycle.append(v)
    else:  # no cycle is shorter than a loop; each tight cycle lies in one critical component,
        verts = sorted(comp_of)  # so a least walk back searches that component's edges alone
        cycle = [v for v in verts if v in succ[v]][:1]
        if not cycle:
            inner = {v: [u for u in pred[v] if comp_of.get(u) == comp_of[v]] for v in verts}
            for v in verts:  # ascending, each search stopped short of the shortest cycle so far
                if (word := least_word(v, v, inner, len(cycle) - 1 if cycle else n)) is not None:
                    cycle = [v, *word]
    cycle = tuple(words[v] for v in cycle)
    return graph._replace(
        max_mean=birkhoff_sum(graph, [*cycle, cycle[0]]) / len(cycle),
        critical_cycle=cycle,
        critical_class=frozenset(words[v] for v in comp_of),
        critical_edges=frozenset((words[sources[e]], words[targets[e]]) for e in edges),
        critical_components=tuple(tuple(words[v] for v in comp) for comp in critical),
        critical_class_unique=len(critical) == 1 and one_each,
        tol=rounding,
        certificate=(mean, tuple(h)),
    )


def optimize(graph: WeightedMemoryGraph, tol: float = DEFAULT_TOL) -> WeightedMemoryGraph:
    """A copy of ``graph`` carrying m, the critical class and a canonical critical cycle."""
    if not graph.vertices:
        raise GraphError("graph has no vertices")
    num, nodes = _numbered(graph), range(len(graph.vertices))
    if not (reaches_all(nodes, num.succ) and reaches_all(nodes, num.pred)):
        comps = strongly_connected_components(nodes, num.succ, num.pred)
        raise GraphError(f"graph must be strongly connected; found {len(comps)} components")
    return _certified(graph, *_howard(graph, tol), tol)


def max_mean_cycle(
    graph: WeightedMemoryGraph, tol: float = DEFAULT_TOL
) -> tuple[float, tuple[Vertex, ...]]:
    optimized = optimize(graph, tol)
    return optimized.max_mean, optimized.critical_cycle


def birkhoff_sum(graph: WeightedMemoryGraph, walk: Sequence[Vertex]) -> float:
    """Weight of a vertex walk, added left to right: the Birkhoff sum of its orbit segment."""
    num, total = _numbered(graph), 0.0
    for u, v in zip(walk, walk[1:]):
        try:
            total += num.weights[_edge(num, num.index[u], num.index[v])]
        except (KeyError, ValueError):
            raise GraphError(f"walk uses the missing edge {u!r} -> {v!r}") from None
    return total


class PeriodicMeasure(NamedTuple):
    """Uniform invariant measure carried by a cycle."""

    cycle: tuple[Vertex, ...]
    weights: tuple[float, ...]
    f_integral: float

    def expect(self, fn) -> float:
        """Average of a vertex function over the orbit points."""
        return reduce(add, (w * fn(v) for v, w in zip(self.cycle, self.weights)), 0.0)


def periodic_measure(graph: WeightedMemoryGraph, cycle: Sequence[Vertex]) -> PeriodicMeasure:
    if not cycle:
        raise GraphError("cycle must be nonempty")
    n, integral = len(cycle), birkhoff_sum(graph, [*cycle, cycle[0]]) / len(cycle)
    return PeriodicMeasure(cycle=tuple(cycle), weights=(1.0 / n,) * n, f_integral=integral)
