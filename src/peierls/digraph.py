"""Deterministic digraph helpers shared by the shift and optimizer layers.

Strong connectivity is Kosaraju's two-pass algorithm (Sharir 1981) over the
successor and predecessor maps its caller holds, and ``adjacency`` is the one
builder of those maps.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)


def adjacency(
    nodes: Iterable[N], edges: Iterable[tuple[N, N]]
) -> tuple[dict[N, tuple[N, ...]], dict[N, tuple[N, ...]]]:
    """Successors in edge order and sorted predecessors of every node."""
    succ: dict[N, list[N]] = {v: [] for v in nodes}
    pred: dict[N, list[N]] = {v: [] for v in succ}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    return {v: tuple(s) for v, s in succ.items()}, {v: tuple(sorted(p)) for v, p in pred.items()}


def strongly_connected_components(
    nodes: Sequence[N], succ: Mapping[N, Iterable[N]], pred: Mapping[N, Iterable[N]]
) -> list[list[N]]:
    """Kosaraju's algorithm, iterative so deep truncations cannot overflow the stack.

    A depth-first pass over ``succ`` records finishing order; a pass over
    ``pred``, latest finisher first, then collects one component per root.
    Each component is sorted ascending; the order of the components is
    unspecified.
    """
    finished: list[N] = []
    seen: set[N] = set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            node, children = frames[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    frames.append((child, iter(succ[child])))
                    break
            else:
                frames.pop()
                finished.append(node)
    comps: list[list[N]] = []
    placed: set[N] = set()
    for root in reversed(finished):
        if root not in placed:
            placed.add(root)
            comp = [root]
            for node in comp:  # grows while it is read: a breadth-first walk
                for v in pred[node]:
                    if v not in placed:
                        placed.add(v)
                        comp.append(v)
            comps.append(sorted(comp))
    return comps


def bfs_distances(start: N, neighbours: Mapping[N, Iterable[N]]) -> dict[N, int]:
    """Least edge counts from ``start`` to every node it reaches.

    Pass the predecessor map as ``neighbours`` to get counts to ``start``.
    """
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for node in frontier:
            for child in neighbours[node]:
                if child not in dist:
                    dist[child] = d
                    nxt.append(child)
        frontier = nxt
    return dist


def least_word(
    a: N, b: N, succ: Mapping[N, Sequence[N]], pred: Mapping[N, Iterable[N]]
) -> tuple[N, ...] | None:
    """Interior of the shortest walk a -> b of at least one edge, least on ties.

    Ties between walks of the same length go to the lexicographically least
    interior; ``a == b`` asks for a shortest cycle through ``a``.  Returns
    None when ``b`` is unreachable from ``a``.
    """
    dist = bfs_distances(b, pred)
    steps = [dist[s] for s in succ[a] if s in dist]
    if not steps:
        return None
    word = []
    node = a
    for remaining in range(min(steps), 0, -1):
        node = min(t for t in succ[node] if dist.get(t) == remaining)
        word.append(node)
    return tuple(word)
