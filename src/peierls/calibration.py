"""Calibrated subactions built on an optimized graph, with minimality and variation.

The barrier from the base vertex is one calibrated subaction, and it is
minimal: every subaction vanishing at the base dominates it.  Another
construction runs the longest-walk dynamic program from a seed given on
the critical class; when the seed is consistent along the tight edges
inside each critical component, the result is a calibrated fixpoint of
the one-step transfer operator.  No command runs this module.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Mapping, NamedTuple

from .optimizer import (
    DEFAULT_TOL, GraphError, WeightedMemoryGraph, _checked_tol, _longest_walk, _require_optimized
)
from .potential import PotentialSpec, var_j
from .shift_space import FiniteShift, Word
from .subaction import Vertex, _check_table


class SeedConsistencyError(ValueError):
    """Seed values disagree with the tight-edge increments they must follow."""


class PreorbitReport(NamedTuple):
    """Calibrated preorbit walked back along contact edges."""

    sequence: tuple[Vertex, ...]
    tail_in_critical_class: bool
    entered_at: int | None


class MinimalityReport(NamedTuple):
    """Whether a pinned subaction dominates the barrier, and where it comes closest."""

    ok: bool
    worst_margin: float
    worst_vertex: Vertex


class VariationReport(NamedTuple):
    """Oscillation of a subaction on word prefixes against the tail bound."""

    entries: tuple[tuple[int, float, float], ...]
    within_bounds: bool


def calibrated_preorbit(
    graph: WeightedMemoryGraph,
    values: Mapping[Vertex, float],
    start: Vertex,
    steps: int,
) -> PreorbitReport:
    """Walk contact edges backwards from ``start``, least source first.

    The sequence runs (start, one step back, two steps back, ...).  The
    choice of least contact source is a function of the current vertex,
    so the sequence is eventually periodic and its cycle consists of
    tight edges, which places the tail inside the critical class.
    """
    tol = _require_optimized(graph)
    if start not in graph.succ:
        raise GraphError(f"unknown vertex {start!r}")
    if steps < 0:
        raise GraphError("steps must be nonnegative")
    _check_table(graph, values)

    sequence = [start]
    current = start
    for _ in range(steps):
        sources = [
            u
            for u in graph.pred[current]
            if abs(values[current] - values[u] + graph.max_mean - graph.weights[u, current]) <= tol
        ]
        if not sources:
            raise GraphError(
                f"no contact edge enters {current!r}; the values are not calibrated there"
            )
        current = min(sources)
        sequence.append(current)

    entered_at: int | None = None
    for idx in range(len(sequence), 0, -1):
        if sequence[idx - 1] not in graph.critical_class:
            break
        entered_at = idx - 1
    return PreorbitReport(
        sequence=tuple(sequence),
        tail_in_critical_class=sequence[-1] in graph.critical_class,
        entered_at=entered_at,
    )


def consistent_seed(
    graph: WeightedMemoryGraph, anchors: Mapping[Vertex, float] | None = None
) -> dict[Vertex, float]:
    """Extend anchor values across the critical class along tight edges.

    Components without an anchor get value 0.0 at their least vertex.
    Tight edges pin every increment, so the extension is determined; a
    second anchor in the same component must agree with the propagated
    value or the seed is rejected.
    """
    tol = _require_optimized(graph)
    anchors = dict(anchors or {})
    stray = sorted(set(anchors) - graph.critical_class)
    if stray:
        raise SeedConsistencyError(
            f"anchors must sit on the critical class; these do not: {stray[:4]}"
        )

    tight_succ: dict[Vertex, list[Vertex]] = {v: [] for v in graph.critical_class}
    for u, v in graph.critical_edges:
        tight_succ[u].append(v)

    seed: dict[Vertex, float] = {}
    for comp in graph.critical_components:
        comp_anchors = sorted(anchors.keys() & comp)
        root = comp_anchors[0] if comp_anchors else comp[0]
        seed[root] = anchors.get(root, 0.0)
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for v in tight_succ[u]:
                cand = seed[u] + graph.weights[(u, v)] - graph.max_mean
                if v in seed:
                    if abs(seed[v] - cand) > tol:
                        raise SeedConsistencyError(
                            f"tight edges force {cand!r} at {v!r} but the seed holds {seed[v]!r}"
                        )
                    continue
                seed[v] = cand
                frontier.append(v)
        for v in comp_anchors[1:]:
            if abs(seed[v] - anchors[v]) > tol:
                raise SeedConsistencyError(
                    f"anchor at {v!r} disagrees with the value propagated from {root!r}"
                )
            seed[v] = anchors[v]
    return seed


def fixpoint_subaction(
    graph: WeightedMemoryGraph, seed: Mapping[Vertex, float]
) -> dict[Vertex, float]:
    """Calibrated subaction from a consistent seed on the critical class.

    The longest-walk sweep extends the seed to every vertex; seeds that
    break consistency along a tight edge would be silently overwritten by
    the sweep, so they are rejected up front.
    """
    tol = _require_optimized(graph)
    if set(seed) != set(graph.critical_class):
        raise SeedConsistencyError(
            "seed must assign a value to every critical-class vertex and nothing else"
        )
    for u, v in sorted(graph.critical_edges):
        gap = seed[u] + graph.weights[(u, v)] - graph.max_mean - seed[v]
        if abs(gap) > tol:
            raise SeedConsistencyError(
                f"seed breaks the tight edge {u!r} -> {v!r} by {gap!r}"
            )
    return _longest_walk(graph, seed)


def one_step_image(
    graph: WeightedMemoryGraph, values: Mapping[Vertex, float]
) -> dict[Vertex, float]:
    """Transfer-operator image: best incoming value plus reduced weight."""
    _require_optimized(graph)
    _check_table(graph, values)
    image: dict[Vertex, float] = {}
    for v in graph.vertices:
        preds = graph.pred[v]
        if not preds:
            raise GraphError(f"vertex {v!r} has no incoming edge")
        image[v] = max(
            values[u] + graph.weights[(u, v)] - graph.max_mean for u in preds
        )
    return image


def minimality_check(
    graph: WeightedMemoryGraph,
    candidate: Mapping[Vertex, float],
    barrier_values: Mapping[Vertex, float],
) -> MinimalityReport:
    """Check that a subaction dominates the barrier once pinned at the base.

    Walk weights bound value differences from below, so the barrier is
    the least subaction vanishing at the base vertex; a candidate falling
    below it somewhere is not a subaction at all.
    """
    tol = _require_optimized(graph)
    _check_table(graph, candidate)
    _check_table(graph, barrier_values)
    base = graph.critical_cycle[0]
    offset = candidate[base]
    worst_margin = float("inf")
    worst_vertex = base
    for v in graph.vertices:
        margin = (candidate[v] - offset) - barrier_values[v]
        if margin < worst_margin:
            worst_margin = margin
            worst_vertex = v
    return MinimalityReport(
        ok=worst_margin >= -tol, worst_margin=worst_margin, worst_vertex=worst_vertex
    )


def variation_of_subaction(
    values: Mapping[Vertex, float],
    finite: FiniteShift,
    pot: PotentialSpec,
    tol: float = DEFAULT_TOL,
) -> VariationReport:
    """Oscillation of vertex values on word prefixes versus the tail bound.

    Grouping vertices by their first n letters, the spread within a group
    is at most the summed oscillations of the weight function at depths
    n and beyond; depths past the table depth contribute nothing.
    """
    if not values:
        raise ValueError("values must be nonempty")
    _checked_tol(tol)
    lengths = {len(v) for v in values}
    if len(lengths) != 1:
        raise ValueError("vertex words must share one length")
    word_len = lengths.pop()

    entries: list[tuple[int, float, float]] = []
    ok = True
    for n in range(1, word_len + 1):
        groups: dict[Word, list[float]] = {}
        for v, x in values.items():
            groups.setdefault(v[:n], []).append(x)
        spread = max(max(g) - min(g) for g in groups.values())
        bound = reduce(add, (var_j(pot, finite, j) for j in range(n, pot.depth)), 0.0)
        entries.append((n, spread, bound))
        if spread > bound + tol:
            ok = False
    return VariationReport(entries=tuple(entries), within_bounds=ok)
