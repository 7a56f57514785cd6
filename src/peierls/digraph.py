"""Deterministic digraph helpers over the successor and predecessor maps their caller holds.

Strongly connected components are Kosaraju's two-pass algorithm (Sharir 1981),
``reaches_all`` the breadth-first pass that, run each way, decides strong
connectivity alone, and ``least_exits`` the one statement of least walks.
The maps themselves are built by their owners: ``shift_space`` for finite
shifts and ``optimizer`` for memory graphs.
"""

from __future__ import annotations

from math import inf
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)


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


def reaches_all(nodes: Sequence[N], succ: Mapping[N, Iterable[N]]) -> bool:
    """Whether walks along ``succ`` from the first of the ``nodes`` reach all of them: strong
    connectivity when it holds for the successors and for the predecessors."""
    seen, order = set(nodes[:1]), list(nodes[:1])
    for node in order:  # grows while it is read
        for v in succ[node]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return 0 < len(order) == len(nodes)


def least_exits(b: N, pred: Mapping[N, Iterable[N]], depth: float = inf) -> dict[N, tuple[int, N]]:
    """Length and first step of the least walk of at least one edge to ``b``, nearest first.

    A least walk is a shortest one, and of those the one with the least next node.  Every node that
    reaches ``b`` within ``depth`` edges has one, ``b`` itself on such a cycle.  One breadth-first
    pass over ``pred`` finds them all: a node keeps the least node one step nearer to ``b``.
    """
    dist, order, exits = {b: 0}, [b], {}
    for node in order:  # grows while it is read
        if (d := dist[node] + 1) > depth:  # breadth first: every later node is as far
            break
        for v in pred[node]:
            if v not in exits or (exits[v][0] == d and node < exits[v][1]):
                exits[v] = d, node
            if v not in dist:
                dist[v] = d
                order.append(v)
    return exits


def least_word(a: N, b: N, pred: Mapping[N, Iterable[N]], depth: float = inf) -> tuple[N, ...] | None:
    """Interior of the least walk a -> b of one to ``depth`` edges, None when there is none.

    Following least first steps gives the lexicographically least interior of the shortest
    walks; ``a == b`` asks for a shortest cycle through ``a``.
    """
    exits = least_exits(b, pred, depth)
    if a not in exits:
        return None
    word = []
    node = exits[a][1]
    while node != b:
        word.append(node)
        node = exits[node][1]
    return tuple(word)
