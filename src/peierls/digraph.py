"""Deterministic digraph helpers shared by the shift and optimizer layers.

Strong connectivity is Kosaraju's two-pass algorithm (Sharir 1981) over the
successor and predecessor maps its caller holds, ``adjacency`` is the one
builder of those maps, and ``least_exits`` the one statement of least walks.
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


def least_exits(b: N, pred: Mapping[N, Iterable[N]]) -> dict[N, tuple[int, N]]:
    """Length and first step of the least walk of at least one edge to ``b``, nearest first.

    A least walk is a shortest one, and of those the one with the least next node.  Every
    node that reaches ``b`` has one, ``b`` itself when it lies on a cycle.  One breadth-first
    pass over ``pred`` finds them all: a node keeps the least node one step nearer to ``b``.
    """
    dist, order, exits = {b: 0}, [b], {}
    for node in order:  # grows while it is read
        d = dist[node] + 1
        for v in pred[node]:
            if v not in exits or (exits[v][0] == d and node < exits[v][1]):
                exits[v] = d, node
            if v not in dist:
                dist[v] = d
                order.append(v)
    return exits


def least_word(a: N, b: N, pred: Mapping[N, Iterable[N]]) -> tuple[N, ...] | None:
    """Interior of the least walk a -> b of at least one edge, None when ``b`` is unreachable.

    Following least first steps gives the lexicographically least interior of the shortest
    walks; ``a == b`` asks for a shortest cycle through ``a``.
    """
    exits = least_exits(b, pred)
    if a not in exits:
        return None
    word = []
    node = exits[a][1]
    while node != b:
        word.append(node)
        node = exits[node][1]
    return tuple(word)
