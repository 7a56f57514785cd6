"""Deterministic digraph helpers shared by the shift and optimizer layers."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)


def strongly_connected_components(
    nodes: Sequence[N], succ: Callable[[N], Iterable[N]]
) -> list[list[N]]:
    """Tarjan's algorithm, iterative so deep truncations cannot overflow the stack.

    Components come out in reverse topological order; each component is
    sorted ascending so the result is deterministic for a given node order.
    """
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    comps: list[list[N]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        frames: list[tuple[N, Iterable[N]]] = [(root, iter(succ(root)))]
        while frames:
            node, it = frames[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    frames.append((child, iter(succ(child))))
                    advanced = True
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(sorted(comp))
    return comps


def bfs_distances(start: N, adjacency: Mapping[N, Iterable[N]]) -> dict[N, int]:
    """Least edge counts from ``start`` to every node it reaches.

    Pass the predecessor map as ``adjacency`` to get counts to ``start``.
    """
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for node in frontier:
            for child in adjacency[node]:
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
