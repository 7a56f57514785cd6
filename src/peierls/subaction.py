"""Subactions on a weighted memory graph: the checks and comparisons the CLI runs.

A subaction assigns a value to every vertex so that along each edge the
reduced weight (edge weight minus the maximum cycle mean) is at most the
value difference.  It is calibrated when every vertex has at least one
incoming edge attaining equality; those tight edges are the contact
edges, and every maximizing cycle consists of them.  ``calibration``
builds calibrated subactions.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .optimizer import DEFAULT_TOL, GraphError, WeightedMemoryGraph
from .optimizer import _checked_tol, _require_optimized
from .shift_space import Word

Vertex = Word
Edge = tuple


class SubactionReport(NamedTuple):
    """Edge-by-edge verdict on a candidate subaction, with its contact set."""

    is_subaction: bool
    worst_violation: float
    is_calibrated: bool
    uncalibrated_vertices: tuple[Vertex, ...]
    contact_edges: frozenset[Edge]
    supp_in_contact: bool


class ComparisonReport(NamedTuple):
    """How far two vertex functions are from differing by a constant."""

    is_constant_diff: bool
    constant: float
    max_deviation: float


class UniquenessReport(NamedTuple):
    """Constant-difference test of two subactions against critical-class uniqueness."""

    comparison: ComparisonReport
    critical_class_unique: bool
    consistent: bool
    note: str


def _edge_slack(
    graph: WeightedMemoryGraph, values: Mapping[Vertex, float], u: Vertex, v: Vertex
) -> float:
    return values[v] - values[u] + graph.max_mean - graph.weights[(u, v)]


def _check_table(graph: WeightedMemoryGraph, values: Mapping[Vertex, float]) -> None:
    """GraphError unless ``values`` holds a finite value for every vertex of ``graph``."""
    missing = sorted(set(graph.vertices) - set(values))
    if missing:
        raise GraphError(f"values missing for vertices: {missing[:4]}")
    nonfinite = sorted(v for v in graph.vertices if not math.isfinite(values[v]))
    if nonfinite:
        raise GraphError(f"values not finite at vertices: {nonfinite[:4]}")


def verify_subaction(graph: WeightedMemoryGraph, values: Mapping[Vertex, float]) -> SubactionReport:
    """Check the subaction inequality edge by edge and locate the contact set."""
    tol = _require_optimized(graph)
    _check_table(graph, values)
    worst = 0.0
    contact: set[Edge] = set()
    for u, v in graph.weights:  # a maximum and a set: the edge order does not matter
        slack = _edge_slack(graph, values, u, v)
        if -slack > worst:
            worst = -slack
        if abs(slack) <= tol:
            contact.add((u, v))

    uncalibrated = tuple(
        v
        for v in graph.vertices
        if not any((u, v) in contact for u in graph.pred[v])
    )
    cycle = graph.critical_cycle
    cycle_edges = {
        (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    }
    return SubactionReport(
        is_subaction=worst <= tol,
        worst_violation=worst,
        is_calibrated=not uncalibrated,
        uncalibrated_vertices=uncalibrated,
        contact_edges=frozenset(contact),
        supp_in_contact=cycle_edges <= contact,
    )


def compare_up_to_constant(
    first: Mapping[Vertex, float],
    second: Mapping[Vertex, float],
    tol: float = DEFAULT_TOL,
) -> ComparisonReport:
    if set(first) != set(second):
        raise ValueError("value tables must cover the same vertices")
    _checked_tol(tol)
    diffs = [first[v] - second[v] for v in sorted(first)]
    if not diffs:
        raise ValueError("no median for empty data")
    # statistics.median's rule, without loading decimal and fractions
    ordered, half = sorted(diffs), len(diffs) // 2
    constant = ordered[half] if len(diffs) % 2 else (ordered[half - 1] + ordered[half]) / 2
    max_dev = max(abs(d - constant) for d in diffs)
    return ComparisonReport(
        is_constant_diff=max_dev <= tol, constant=constant, max_deviation=max_dev
    )


def uniqueness_comparison(
    graph: WeightedMemoryGraph,
    first: Mapping[Vertex, float],
    second: Mapping[Vertex, float],
) -> UniquenessReport:
    """Compare two candidates against the unique-class hypothesis.

    Calibrated subactions agree up to a constant exactly when the
    critical class has a single component; with several components the
    anchor of each can move independently and disagreement is expected.
    """
    comparison = compare_up_to_constant(first, second, _require_optimized(graph))
    unique = bool(graph.critical_class_unique)
    parts = len(graph.critical_components)
    if unique and comparison.is_constant_diff:
        note = "single critical component; the candidates agree up to a constant."
    elif unique and not comparison.is_constant_diff:
        note = (
            "single critical component, yet the candidates differ by a non-constant; "
            "at least one of them is not a calibrated subaction."
        )
    elif comparison.is_constant_diff:
        note = (
            f"critical class splits into {parts} components, but these candidates "
            "happen to agree up to a constant."
        )
    else:
        note = (
            f"critical class splits into {parts} components, so the uniqueness "
            "hypothesis fails and the observed disagreement is expected."
        )
    return UniquenessReport(
        comparison=comparison,
        critical_class_unique=unique,
        consistent=not (unique and not comparison.is_constant_diff),
        note=note,
    )
