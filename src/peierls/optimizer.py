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

Vertices only need to be hashable and mutually sortable; library callers
use letter words, tests are free to use bare integers.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Any, Collection, Mapping, NamedTuple, Sequence

from . import DEFAULT_TOL
from .digraph import adjacency, least_word, strongly_connected_components
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


class WeightedMemoryGraph(NamedTuple):
    """Finite weighted digraph plus the optimization results, once computed.

    ``optimize`` returns a copy with the ``max_mean`` / ``critical_*`` fields set and
    ``tol``, its ``tol`` raised to the float rounding of a |V|-edge walk sum: the one
    tolerance every later pass on the graph reads.  The graph it was given stays as is.
    """

    vertices: tuple[Vertex, ...]
    weights: dict[Edge, float]
    succ: dict[Vertex, tuple[Vertex, ...]]
    pred: dict[Vertex, tuple[Vertex, ...]]
    shift: FiniteShift | None = None
    pot: PotentialSpec | None = None
    max_mean: float | None = None
    critical_cycle: tuple[Vertex, ...] | None = None
    critical_class: frozenset = frozenset()
    critical_edges: frozenset = frozenset()
    critical_components: tuple[tuple[Vertex, ...], ...] = ()
    critical_class_unique: bool | None = None
    tol: float | None = None

    def is_optimized(self) -> bool:
        return self.max_mean is not None

    def with_optimum(self, tight: Collection[Edge], tol: float) -> WeightedMemoryGraph:
        """A copy carrying the optimum that the ``tight`` edges fix, decided at ``tol``.

        The critical components are the strongly connected pieces of the tight edges
        that hold a cycle, and the critical edges are the tight edges inside them.  The
        canonical cycle is their shortest cycle, least on ties, and m is its mean weight.
        The class is unique when it is one component whose vertices each have exactly
        one critical out-edge.  ``tol`` is the effective tolerance, ``_rounding_tol`` of
        the caller's, and the copy carries it as its ``tol``.
        """
        nodes = sorted({v for edge in tight for v in edge})  # few on a cache hit
        succ, pred = adjacency(nodes, tight)
        comps = strongly_connected_components(nodes, succ, pred)
        critical = sorted(comp for comp in comps if len(comp) > 1 or comp[0] in succ[comp[0]])
        comp_of = {v: idx for idx, comp in enumerate(critical) for v in comp}
        edges = [(u, v) for u, idx in comp_of.items() for v in succ[u] if comp_of.get(v) == idx]
        cycle = _canonical_cycle(*adjacency(comp_of, edges))
        total = birkhoff_sum(self, cycle + cycle[:1])
        unique = len(critical) == 1 and len(edges) == len(critical[0])  # each has >= 1
        return self._replace(
            max_mean=total / len(cycle),
            critical_cycle=cycle,
            critical_class=frozenset(comp_of),
            critical_edges=frozenset(edges),
            critical_components=tuple(map(tuple, critical)),
            critical_class_unique=unique,
            tol=tol,
        )


def graph_from_weights(weights: Mapping[Edge, float]) -> WeightedMemoryGraph:
    """Assemble a graph from an explicit edge-weight map (test entry point)."""
    if not weights:
        raise GraphError("graph needs at least one edge")
    verts = tuple(sorted({u for u, _ in weights} | {v for _, v in weights}))
    succ, pred = adjacency(verts, sorted(weights))
    return WeightedMemoryGraph(
        vertices=verts,
        weights={e: float(w) for e, w in weights.items()},
        succ=succ,
        pred=pred,
    )


def build_memory_graph(finite: FiniteShift, pot: PotentialSpec) -> WeightedMemoryGraph:
    """Depth-k encoding of a finite shift: walk weights are Birkhoff sums."""
    k = pot.depth
    vlen = max(k - 1, 1)
    verts = tuple(admissible_words(finite, vlen))
    if not verts:
        raise GraphError("the truncation admits no words of the memory length")
    _within_limit(sum(len(finite.succ[u[-1]]) for u in verts), "memory-graph edges", GraphError)
    weights: dict[Edge, float] = {}
    for u in verts:
        for letter in finite.succ[u[-1]]:
            v = u[1:] + (letter,) if k >= 2 else (letter,)
            weights[(u, v)] = evaluate(pot, u + (letter,))
    succ, pred = adjacency(verts, weights)
    return WeightedMemoryGraph(
        vertices=verts,
        weights=weights,
        succ=succ,
        pred=pred,
        shift=finite,
        pot=pot,
    )


def _checked_tol(tol: float) -> float:
    """``tol`` itself, once it is a finite nonnegative number."""
    if not 0 <= tol < math.inf:
        raise GraphError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def _rounding_tol(graph: WeightedMemoryGraph, tol: float) -> float:
    """``tol``, raised to the float rounding of a |V|-edge walk sum when weights are large."""
    scale = max((abs(w) for w in graph.weights.values()), default=0.0)
    return max(_checked_tol(tol), 4 * len(graph.vertices) * sys.float_info.epsilon * scale)


def _require_optimized(graph: WeightedMemoryGraph) -> float:
    """The tolerance of a graph ``optimize`` returned; GraphError for others."""
    if not graph.is_optimized():
        raise GraphError("graph is not optimized; pass it through optimize first")
    return graph.tol


def _howard(graph: WeightedMemoryGraph, tol: float) -> tuple[float, dict[Vertex, float]]:
    """Max-plus policy iteration: the maximum mean m and a subaction h = -x at m.

    A policy picks one out-edge per vertex, the heaviest first.  Each vertex gets the
    mean eta of the policy cycle it runs into and a bias x on the way, 0 at that cycle's
    least vertex.  A vertex switches to a successor of larger eta or, once none has one,
    of larger bias, if the gain passes the tolerance; at the end x[u] >= w - m + x[v].
    A policy that comes back would come back forever, so it raises ``GraphError``.
    """
    verts, n = graph.vertices, len(graph.vertices)
    index = {v: i for i, v in enumerate(verts)}
    targets = [sorted(index[t] for t in graph.succ[v]) for v in verts]
    if not all(targets):
        raise GraphError("a vertex without out-edges lies on no cycle")
    # Shifted to a top weight of 0, the weights set the tolerance by their spread, not
    # their size: at 1e12 a size-based one let the two phases undo each other forever.
    top = max(graph.weights.values())
    shifted = {edge: w - top for edge, w in graph.weights.items()}
    weights = [[shifted[(v, verts[t])] for t in ts] for v, ts in zip(verts, targets)]
    tol = _rounding_tol(graph._replace(weights=shifted), tol)
    policy = [ws.index(max(ws)) for ws in weights]  # the least target on ties
    seen: dict[tuple[int, ...], int] = {}  # each policy run so far -> its iteration, from 1
    while (key := tuple(policy)) not in seen:
        seen[key] = len(seen) + 1
        nxt = [ts[k] for ts, k in zip(targets, policy)]
        step = [ws[k] for ws, k in zip(weights, policy)]
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
        switched = False
        for i, ts in enumerate(targets):  # first on the cycle mean
            gains = [eta[t] for t in ts]
            if max(gains) > eta[i] + tol:
                policy[i], switched = gains.index(max(gains)), True
        if switched:
            continue
        for i, (ts, ws) in enumerate(zip(targets, weights)):  # then on the bias
            gains = [
                w - eta[i] + x[t] if eta[t] >= eta[i] - tol else -math.inf for t, w in zip(ts, ws)
            ]
            if max(gains) > x[i] + tol:
                policy[i], switched = gains.index(max(gains)), True
        if not switched:
            return max(eta) + top, {v: -b for v, b in zip(verts, x)}
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
    values: dict[Vertex, float] = {v: -math.inf for v in graph.vertices}
    for v, s in seeds.items():
        if v not in values:
            raise GraphError(f"seed vertex {v!r} is not in the graph")
        values[v] = float(s)
    edges, m, tol = sorted(graph.weights.items()), graph.max_mean, _require_optimized(graph)
    for _ in range(len(graph.vertices) - 1):
        changed = False
        for (u, v), w in edges:  # an unreached u gives -inf, or nan for w = inf: both lose
            cand = values[u] + (w - m)
            if cand > values[v]:
                values[v] = cand
                changed = True
        if not changed:
            break
    for (u, v), w in edges:
        if values[u] + (w - m) > values[v] + tol:
            raise PositiveCycleError(
                f"reduced cycle with positive weight through edge {u!r} -> {v!r}"
            )
    stuck = sorted(v for v, x in values.items() if x == -math.inf)
    if stuck:
        # an edge from a reached vertex adds up to -inf only past the float range
        overflow = any(values[u] > -math.inf for v in stuck for u in graph.pred[v])
        why = " (their walk weights overflow the float range to -inf)" if overflow else ""
        raise GraphError(f"vertices unreachable from the seeds: {stuck[:4]}{why}")
    return values


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


def _canonical_cycle(
    intra_succ: Mapping[Vertex, tuple[Vertex, ...]],
    intra_pred: Mapping[Vertex, tuple[Vertex, ...]],
) -> tuple[Vertex, ...]:
    """Minimal-length critical cycle, lexicographically least sequence on ties.

    No cycle is shorter than a loop, so the least looped vertex answers when there is one.
    When every vertex has one critical out-edge, the class is disjoint simple cycles, each
    read from its least vertex; otherwise each vertex's least walk back to itself is one.
    """
    verts = sorted(intra_succ)
    loops = [v for v in verts if v in intra_succ[v]]
    if loops:
        return (loops[0],)
    cycles = []
    if all(len(intra_succ[v]) == 1 for v in verts):
        seen: set[Vertex] = set()
        for v in verts:
            if v not in seen:
                cycles.append([v])
                while (nxt := intra_succ[cycles[-1][-1]][0]) != v:
                    cycles[-1].append(nxt)
                seen.update(cycles[-1])
    else:
        for v in verts:
            word = least_word(v, v, intra_pred)
            if word is not None:
                cycles.append([v, *word])
    if not cycles:
        raise GraphError("critical class contains no cycle")
    return tuple(min(cycles, key=len))  # the least start on ties


def optimize(graph: WeightedMemoryGraph, tol: float = DEFAULT_TOL) -> WeightedMemoryGraph:
    """A copy of ``graph`` carrying m, the critical class and a canonical critical cycle."""
    if not graph.vertices:
        raise GraphError("graph has no vertices")
    comps = strongly_connected_components(graph.vertices, graph.succ, graph.pred)
    if len(comps) != 1:
        raise GraphError(f"graph must be strongly connected; found {len(comps)} components")
    mean, h = _howard(graph, tol)
    rounding, w = _rounding_tol(graph, tol), graph.weights
    # h[u] + (w - m) <= h[v] + rounding on every edge certifies that no cycle beats m
    tight, excess = [], {}
    for u in graph.vertices:
        for v in sorted(graph.succ[u]):
            reach = h[u] + (w[(u, v)] - mean)
            if reach > h[v] + rounding:
                excess[(u, v)] = reach - h[v]
            elif reach >= h[v] - rounding:
                tight.append((u, v))
    if excess:
        u, v = max(excess, key=excess.get)
        raise GraphError(f"m is not certified: edge {u!r} -> {v!r} beats it by {excess[(u, v)]!r}")
    return graph.with_optimum(tight, rounding)


def max_mean_cycle(
    graph: WeightedMemoryGraph, tol: float = DEFAULT_TOL
) -> tuple[float, tuple[Vertex, ...]]:
    optimized = optimize(graph, tol)
    return optimized.max_mean, optimized.critical_cycle


def birkhoff_sum(graph: WeightedMemoryGraph, walk: Sequence[Vertex]) -> float:
    """Weight of a vertex walk, added left to right: the Birkhoff sum of its orbit segment."""
    total = 0.0
    for u, v in zip(walk, walk[1:]):
        w = graph.weights.get((u, v))
        if w is None:
            raise GraphError(f"walk uses the missing edge {u!r} -> {v!r}")
        total += w
    return total


class PeriodicMeasure(NamedTuple):
    """Uniform invariant measure carried by a cycle."""

    cycle: tuple[Vertex, ...]
    weights: tuple[float, ...]
    f_integral: float

    def expect(self, fn) -> float:
        """Average of a vertex function over the orbit points."""
        return reduce(add, (w * fn(v) for v, w in zip(self.cycle, self.weights)), 0.0)


def periodic_measure(
    graph: WeightedMemoryGraph, cycle: Sequence[Vertex]
) -> PeriodicMeasure:
    if not cycle:
        raise GraphError("cycle must be nonempty")
    closed = list(cycle) + [cycle[0]]
    integral = birkhoff_sum(graph, closed) / len(cycle)
    n = len(cycle)
    return PeriodicMeasure(
        cycle=tuple(cycle), weights=(1.0 / n,) * n, f_integral=integral
    )
