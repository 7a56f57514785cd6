"""Brute-force reference implementations the tests compare against.

Everything here is deliberately naive: exhaustive enumeration of simple
cycles and simple paths, reachability, components by mutual reachability,
a trim that removes one stranded letter at a time, two covering-core searches
that raise the truncation bound one letter at a time, and a seeded random
graph generator.  Exponential blowup is acceptable at the sizes used in
the suite (graphs of at most 8 vertices).  Larger graphs are checked
against two polynomial references instead: Karp's maximum cycle mean and
Floyd-Warshall's all-pairs longest reduced paths.
``scripts/oracle_sweep.py`` imports its references from here too.
``oracle_parser`` is the command line's argparse tree written out call by
call, as ``cli`` built it before the grammar became one table.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction

from peierls import TransitivityError, TruncationError, shift_space, transitive_core, truncate
from peierls.cli import (
    _cmd_barrier,
    _cmd_converge,
    _cmd_demo_renewal,
    _cmd_optimize,
    _cmd_shift_check,
    _cmd_subaction_compare,
    _cmd_subaction_verify,
    _int_list,
)
from peierls.optimizer import DEFAULT_TOL


def successors(weights):
    succ = {}
    for u, v in weights:
        succ.setdefault(u, set()).add(v)
        succ.setdefault(v, set())
    return succ


def simple_cycles(weights):
    """All simple cycles as vertex lists, each rooted at its least vertex."""
    succ = successors(weights)
    for start in sorted(succ):
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(succ[node]):
                if nxt == start:
                    yield path[:]
                elif nxt > start and nxt not in path:
                    stack.append((nxt, path + [nxt]))


def oracle_canonical_cycle(edges):
    """(length, cycle) of the shortest cycle, lexicographically least on ties."""
    return min((len(c), tuple(c)) for c in simple_cycles(edges))


def cycle_mean(weights, cycle):
    total = Fraction(0)
    for i, u in enumerate(cycle):
        total += Fraction(weights[(u, cycle[(i + 1) % len(cycle)])])
    return total / len(cycle)


def oracle_max_mean(weights):
    """Maximum cycle mean by exhaustive simple-cycle enumeration, as a float."""
    best = None
    for cycle in simple_cycles(weights):
        mean = cycle_mean(weights, cycle)
        if best is None or mean > best:
            best = mean
    if best is None:
        raise ValueError("graph has no cycle")
    return float(best)


def oracle_karp_max_mean(weights):
    """Karp's formula from the least vertex: max over v of min over k of (D_n(v) - D_k(v))/(n - k).

    D_k(v) is the best weight of a k-edge walk from the least vertex to v;
    the graph must be strongly connected.
    """
    verts = sorted(successors(weights))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v], w) for (u, v), w in weights.items()]
    n = len(verts)
    table = [[float("-inf")] * n for _ in range(n + 1)]
    table[0][0] = 0.0
    for prev, row in zip(table, table[1:]):
        for u, v, w in edges:
            if prev[u] + w > row[v]:
                row[v] = prev[u] + w
    return max(
        min((table[n][v] - table[k][v]) / (n - k) for k in range(n) if table[k][v] > float("-inf"))
        for v in range(n)
        if table[n][v] > float("-inf")
    )


def oracle_critical_edges(weights, mean):
    """Edges on a cycle of mean ``mean``, by Floyd-Warshall on the reduced weights.

    D[v][u] is the best reduced weight of a walk v -> u, 0 for the empty
    walk; u -> v lies on a critical cycle iff w - mean + D[v][u] >= -1e-9.
    """
    verts = sorted(successors(weights))
    dist = {u: {v: 0.0 if u == v else float("-inf") for v in verts} for u in verts}
    for (u, v), w in weights.items():
        dist[u][v] = max(dist[u][v], w - mean)
    for k in verts:
        through = dist[k]
        for u in verts:
            lead = dist[u][k]
            if lead > float("-inf"):
                row = dist[u]
                for v in verts:
                    if lead + through[v] > row[v]:
                        row[v] = lead + through[v]
    return frozenset(
        (u, v) for (u, v), w in weights.items() if w - mean + dist[v][u] >= -1e-9
    )


def oracle_barrier(weights, base, mean):
    """Max reduced weight over simple paths from base, 0.0 at base itself.

    Closed sub-walks have nonpositive reduced weight once mean is the
    maximum cycle mean, so restricting to simple paths loses nothing.
    """
    succ = successors(weights)
    best = {v: float("-inf") for v in succ}
    best[base] = 0.0
    stack = [(base, frozenset({base}), 0.0)]
    while stack:
        node, seen, acc = stack.pop()
        for nxt in sorted(succ[node]):
            if nxt in seen:
                continue
            val = acc + weights[(node, nxt)] - mean
            if val > best[nxt]:
                best[nxt] = val
            stack.append((nxt, seen | {nxt}, val))
    return best


def oracle_walk_profile(weights, base, target, mean, n_max):
    """Best reduced weight over walks of exactly n edges, by full enumeration."""
    succ = successors(weights)
    frontier = {base: 0.0}
    out = [0.0 if target == base else float("-inf")]
    for _ in range(n_max):
        nxt = {}
        for node, acc in frontier.items():
            for x in succ[node]:
                val = acc + weights[(node, x)] - mean
                if val > nxt.get(x, float("-inf")):
                    nxt[x] = val
        frontier = nxt
        out.append(frontier.get(target, float("-inf")))
    return tuple(out)


def oracle_connect_len(succ, target=None):
    """Largest least edge count of a walk i -> b with at least one edge, over all pairs.

    Forward BFS from every letter; a letter's first revisit of itself is
    its girth.  ``target`` restricts the pairs to b == target.
    """
    worst = 0
    for start in succ:
        dist = {}
        frontier = list(succ[start])
        d = 1
        while frontier:
            fresh = [x for x in dict.fromkeys(frontier) if x not in dist]
            for x in fresh:
                dist[x] = d
            frontier = [y for x in fresh for y in succ[x]]
            d += 1
        if set(dist) != set(succ):
            raise ValueError(f"letter {start} does not reach every letter")
        worst = max(worst, dist[target] if target is not None else max(dist.values()))
    return worst


def oracle_covering_core(spec, letters):
    """Transitive core covering ``letters``, by search with no closed form for any kind.

    Raises the truncation bound one letter at a time from the top requested
    letter until the strongly connected piece through the requested letters
    holds them all.  Letters past a finite alphabet are dropped.
    """
    cap = spec.max_letter()
    wanted = sorted(l for l in set(letters) if cap is None or l <= cap) or [0]
    for bound in range(wanted[-1], wanted[-1] + 10_000):
        try:
            return transitive_core(truncate(spec, bound), wanted)
        except (TruncationError, TransitivityError):
            if cap is not None and bound >= cap:
                break
    raise ValueError(f"no transitive truncation covers letters {wanted}")


def oracle_scan_covering_core(spec, letters):
    """``covering_core`` of a finite or oracle shift as it was written before its search
    doubled and bisected: one bound at a time, each checked against the size limit first.

    It reads the module's size limit when called, so a test that patches it patches
    both searches.
    """
    cap = spec.max_letter()
    wanted = sorted(set(letters))
    if cap is not None:
        wanted = [l for l in wanted if l <= cap] or [0]
    last = max(wanted[-1], shift_space._SIZE_LIMIT) if cap is None else cap
    for bound in range(wanted[-1], last + 1):
        shift_space._truncation_within_limit(spec, bound)
        try:
            fin = truncate(spec, bound)
            core = transitive_core(fin, [l for l in wanted if l in fin.pred])
        except (TruncationError, TransitivityError):
            continue
        if all(l in core.pred for l in wanted):
            return core
    raise TruncationError(
        f"no transitive truncation covering letters {wanted} found up to bound {last}"
    )


def oracle_connecting_word(succ, a, b):
    """Shortest w with a.w.b admissible, least on ties, by forward BFS over words.

    Layers are kept in lexicographic order and each letter keeps only the
    first (least) word that reaches it; every letter of a shortest word
    sits at its least distance from ``a``, so nothing is lost.
    """
    layer = [((), a)]
    seen = {a}
    while layer:
        for word, end in layer:
            if b in succ[end]:
                return word
        nxt = []
        for word, end in layer:
            for x in sorted(succ[end]):
                if x not in seen:
                    seen.add(x)
                    nxt.append((word + (x,), x))
        layer = nxt
    raise ValueError(f"letter {b} is not reachable from letter {a}")


def reach(succ, start):
    """Every node a walk of zero or more edges leads to from ``start``."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def predecessors(succ):
    pred = {v: set() for v in succ}
    for u, targets in succ.items():
        for v in targets:
            pred[v].add(u)
    return pred


def is_strongly_connected(weights):
    succ = successors(weights)
    pred = predecessors(succ)
    verts = set(succ)
    first = min(verts)
    return reach(succ, first) == verts and reach(pred, first) == verts


def oracle_components(succ):
    """Strongly connected components as a set of frozensets, by mutual reachability.

    Two nodes share a component iff each reaches the other; a node on no
    cycle is a component of its own.
    """
    pred = predecessors(succ)
    return {frozenset(reach(succ, v) & reach(pred, v)) for v in succ}


def oracle_trimmed_letters(edges, letters):
    """Letters left once no letter lacks an in-edge or an out-edge among them.

    Removes the least such letter, one at a time, and rescans from scratch.
    """
    kept = set(letters)
    while True:
        stranded = [
            l
            for l in sorted(kept)
            if not any((l, j) in edges for j in kept) or not any((i, l) in edges for i in kept)
        ]
        if not stranded:
            return kept
        kept.discard(stranded[0])


def random_graph(rng: random.Random, n: int, extra_p: float = 0.3):
    """Strongly connected integer-weighted digraph on vertices 0..n-1.

    A directed ring guarantees strong connectivity; extra edges
    (self-loops included) are sprinkled on top.
    """
    weights = {}
    for i in range(n):
        weights[(i, (i + 1) % n)] = rng.randint(-10, 10)
    for i in range(n):
        for j in range(n):
            if (i, j) not in weights and rng.random() < extra_p:
                weights[(i, j)] = rng.randint(-10, 10)
    return weights


def oracle_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="maximizing cycles, barriers and subactions on Markov shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, potential: bool = True) -> None:
        p.add_argument("--shift", required=True, help="shift spec JSON file")
        if potential:
            p.add_argument("--potential", required=True, help="potential JSON file")
            p.add_argument("--max-letter", type=int, default=None)
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    shift = sub.add_parser("shift", help="inspect a shift spec")
    shift_sub = shift.add_subparsers(dest="action", required=True)
    check = shift_sub.add_parser("check", help="entry/exit boundedness and transitivity")
    add_io(check, potential=False)
    check.add_argument("--horizon", type=int, default=100)
    check.set_defaults(handler=_cmd_shift_check)

    optimize_p = sub.add_parser("optimize", help="maximum cycle mean and critical cycle")
    add_io(optimize_p)
    optimize_p.set_defaults(handler=_cmd_optimize)

    barrier_p = sub.add_parser("barrier", help="barrier values from the base vertex")
    add_io(barrier_p)
    barrier_p.add_argument("--format", choices=("json", "csv"), default="json")
    barrier_p.set_defaults(handler=_cmd_barrier)

    subaction_p = sub.add_parser("subaction", help="verify or compare subaction tables")
    subaction_sub = subaction_p.add_subparsers(dest="action", required=True)
    verify = subaction_sub.add_parser("verify", help="check a values CSV")
    add_io(verify)
    verify.add_argument("--values", required=True, help="CSV of vertex_word,value")
    verify.add_argument("--assert", dest="assert_verdict", action="store_true")
    verify.set_defaults(handler=_cmd_subaction_verify)
    compare = subaction_sub.add_parser("compare", help="compare two values CSVs")
    add_io(compare)
    compare.add_argument("--values", required=True)
    compare.add_argument("--values-b", required=True)
    compare.add_argument("--assert", dest="assert_verdict", action="store_true")
    compare.set_defaults(handler=_cmd_subaction_compare)

    converge_p = sub.add_parser("converge", help="truncation family experiments")
    add_io(converge_p)
    converge_p.add_argument("--stages", type=_int_list, required=True)
    converge_p.add_argument("--letters", type=_int_list, default=())
    converge_p.add_argument("--scan-to", type=int, default=None)
    converge_p.add_argument("--no-cache", dest="use_cache", action="store_false")
    converge_p.add_argument("--format", choices=("json", "csv"), default="json")
    converge_p.add_argument("--assert", dest="assert_verdict", action="store_true")
    converge_p.set_defaults(handler=_cmd_converge)

    demo = sub.add_parser("demo", help="worked examples end to end")
    demo_sub = demo.add_subparsers(dest="action", required=True)
    renewal = demo_sub.add_parser("renewal", help="renewal shift divergence study")
    renewal.add_argument("--a", type=int, default=2)
    renewal.add_argument("--b", type=int, default=0)
    renewal.add_argument("--stages", type=_int_list, default=(6, 12, 24))
    renewal.add_argument("--scan-to", type=int, default=23)
    renewal.add_argument("--tol", type=float, default=DEFAULT_TOL)
    renewal.add_argument("--no-cache", dest="use_cache", action="store_false")
    renewal.add_argument("--out", default=None)
    renewal.set_defaults(handler=_cmd_demo_renewal)

    return parser
