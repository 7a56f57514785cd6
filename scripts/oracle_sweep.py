#!/usr/bin/env python3
"""Soak test: optimizer and barrier against brute-force enumeration.

Draws seeded random strongly connected graphs, compares the package's
mean, canonical cycle and barrier against the exhaustive enumerations of
``tests/oracles.py``, which share no code with the library, and reports
the worst absolute deviations and the cycle mismatches seen.  A tenth as
many larger graphs (20 to 60 vertices, past the reach of enumeration)
check the mean against Karp's dynamic program from the same module, once
as drawn and once with every weight divided by 64 and 1e12 added, where
``optimize`` must return a mean within its float rounding tolerance of
Karp's.  Sixty-fourths keep every walk sum of Karp's table exact, and they
put distinct cycle means closer together than that tolerance.  On
both passes the critical components must be the mutual-reachability
classes of the critical edges, so the tight-graph strong connectivity is
checked against an oracle that shares no code with the library.  It
also checks the stage-two bound and connect length of the letter cutoff on
renewal cores (a = 1..6, b = 0..5, top letters 0..5) against a stage-two
core found here by brute search from the entry rule and an all-pairs BFS,
and builds each of those stages twice in a temporary stage cache, cold
then warm, requiring the two to agree bit for bit.  Renewal stages only
ever cache the loop at 0, so --count tie-heavy explicit shifts (2 to 10
letters from the random graphs, a depth-2 table of weights -1, 0 or 0, once
as drawn and once plus uniform noise of at most 1e-12) each build their
stage without the cache, cold and warm: the warm build must be a hit, and
all three must agree bit for bit.  Last, it fits 40 times
--count seeded random letter/floor sets with the probe's slope and with
``statistics.linear_regression``, and counts the fits whose slopes differ in
any bit (none on 3.11; later versions sum with ``sumprod``).  Their
difference is taken relative to the larger of the slope and the fit's scale
sqrt(Syy/Sxx), since a near-zero slope magnifies a last-bit difference.
Then --count tie-heavy graphs (2 to 10 vertices, each weight -1, 0 or 0
plus uniform noise of at most 1e-8, a hundredth of the tolerance) are
optimized at tolerance 1e-6; the barrier walk must return, and
``verify_subaction`` must find the barrier a calibrated subaction whose
contact edges hold the critical cycle, both at the tolerance the graph
carries.  Last, --count graphs of 2 to 8 vertices with weights k/7 + 1e12
(one ulp there is 1.2e-4) test uniqueness: on each whose critical class is
one component, ``uniqueness_comparison`` must find the barrier and the fixpoint
subaction of ``consistent_seed`` equal up to a constant at the graph's
tolerance.  Exits nonzero past --tol, on a ``GraphError`` at the 1e12
offset, on any cycle, component, offset, stage-two or cache mismatch, on a
slope difference above 1e-12, on any tie-heavy graph that fails, or on any
one-component graph whose two subactions disagree.
"""

import argparse
import math
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from peierls import (
    DEFAULT_TOL,
    GraphError,
    PotentialSpec,
    ShiftSpec,
    build_stage,
    compute_barrier,
    consistent_seed,
    covering_core,
    fixpoint_subaction,
    graph_from_weights,
    letter_cutoff,
    optimize,
    uniqueness_comparison,
    verify_subaction,
)
from peierls.optimizer import _rounding_tol
from peierls.truncation import _slope

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import (
    oracle_barrier,
    oracle_canonical_cycle,
    oracle_components,
    oracle_connect_len,
    oracle_karp_max_mean,
    oracle_max_mean,
    predecessors,
    random_graph,
    reach,
)


def brute_renewal_core(a, b, wanted):
    """Successors of the strongly connected piece through ``wanted`` of the least
    renewal truncation 0..top holding them all, raising top one letter at a time."""
    top = max(wanted)
    while True:
        succ = {j: [j - 1] for j in range(1, top + 1)}
        succ[0] = [0] + [j for j in range(1, top + 1) if j >= a + b and (j - b) % a == 0]
        pred = predecessors(succ)
        piece = reach(succ, min(wanted)) & reach(pred, min(wanted))
        if set(wanted) <= piece:
            return {i: [j for j in succ[i] if j in piece] for i in piece}
        top += 1


def renewal_stage_two_mismatches():
    """Renewal cores whose cutoff reports a stage-two bound or connect length off brute force."""
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0})
    mismatches = 0
    for a in range(1, 7):
        for b in range(6):
            spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
            for top in range(6):
                core = covering_core(spec, range(top + 1))
                report = letter_cutoff(spec, pot, core, 0)
                needed = set(range(report.excursion_cutoff + 2)) | set(core.letters)
                wide = brute_renewal_core(a, b, needed)
                mismatches += (
                    report.wide_bound != max(wide)
                    or report.wide_connect_len != oracle_connect_len(wide)
                )
    return mismatches


def component_mismatch(g):
    """Whether the critical components of ``g`` differ from the strongly connected
    components, by mutual reachability, of the graph of its critical edges."""
    succ = {v: [] for edge in g.critical_edges for v in edge}
    for u, v in sorted(g.critical_edges):
        succ[u].append(v)
    return {frozenset(comp) for comp in g.critical_components} != oracle_components(succ)


def stage_facts(stage):
    """Everything a cache hit must reproduce, with floats in their exact repr."""
    graph, result = stage.graph, stage.barrier
    return repr((
        graph.max_mean,
        graph.critical_cycle,
        graph.critical_components,
        sorted(graph.critical_edges),
        graph.critical_class_unique,
        result.base_vertex,
        sorted(result.values.items()),
        result.bounds,
    ))


def renewal_cache_mismatches():
    """Renewal stages whose warm (cached) build differs from the cold one or misses."""
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0})
    mismatches = 0
    with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ, PEIERLS_CACHE_DIR=root):
        for a in range(1, 7):
            for b in range(6):
                spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
                for top in range(6):
                    cold = build_stage(spec, pot, top)
                    warm = build_stage(spec, pot, top)
                    mismatches += (
                        cold.from_cache
                        or not warm.from_cache
                        or stage_facts(cold) != stage_facts(warm)
                    )
    return mismatches


def tie_heavy_cache_mismatches(rng, count):
    """Stages of tie-heavy explicit shifts whose cached builds, cold then warm, differ
    from the uncached one, or whose warm build misses."""
    mismatches = 0
    with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ, PEIERLS_CACHE_DIR=root):
        for _ in range(count):
            n = rng.randint(2, 10)
            edges = random_graph(rng, n)
            spec = ShiftSpec(kind="explicit-finite", alphabet_size=n, edges=frozenset(edges))
            table = {e: rng.choice((-1.0, 0.0, 0.0)) for e in edges}
            for noise in (0.0, 1e-12):
                noisy = {e: w + rng.uniform(-noise, noise) for e, w in table.items()}
                pot = PotentialSpec(depth=2, tail_kind="linear", tail_scale=1.0, table=noisy)
                fresh = stage_facts(build_stage(spec, pot, n - 1, use_cache=False))
                cold = build_stage(spec, pot, n - 1)
                warm = build_stage(spec, pot, n - 1)
                # a repeated draw may make the cold build a hit too, which changes nothing
                same = fresh == stage_facts(cold) == stage_facts(warm)
                mismatches += not (warm.from_cache and same)
    return mismatches


def slope_differences(rng, count):
    """Fits whose probe slope differs from the stdlib's in any bit, and the worst
    difference relative to the larger of the slope and the fit's scale."""
    differing, worst = 0, 0.0
    for _ in range(count):
        x = sorted(rng.sample(range(401), rng.randint(2, 40)))
        y = [rng.uniform(-1000.0, 1000.0) for _ in x]
        ours, expected = _slope(x, y), statistics.linear_regression(x, y).slope
        xbar, ybar = math.fsum(x) / len(x), math.fsum(y) / len(y)
        syy = math.fsum((v - ybar) ** 2 for v in y)
        scale = math.sqrt(syy / math.fsum((v - xbar) ** 2 for v in x))
        differing += ours != expected
        worst = max(worst, abs(ours - expected) / max(abs(expected), scale))
    return differing, worst


TIE_TOL = 1e-6


def tie_heavy_failures(rng, count):
    """Tie-heavy graphs, optimized at ``TIE_TOL``, whose barrier walk raises or whose
    barrier is not certified a calibrated subaction at the graph's own tolerance."""
    failures, noise = 0, TIE_TOL / 100
    for _ in range(count):
        edges = random_graph(rng, rng.randint(2, 10))
        weights = {e: rng.choice((-1.0, 0.0, 0.0)) + rng.uniform(-noise, noise) for e in edges}
        try:
            g = optimize(graph_from_weights(weights), TIE_TOL)
            report = verify_subaction(g, compute_barrier(g).values)
        except GraphError:  # PositiveCycleError included
            failures += 1
            continue
        failures += not (report.is_subaction and report.is_calibrated and report.supp_in_contact)
    return failures


def uniqueness_failures(rng, count):
    """Of ``count`` graphs with weights k/7 + 1e12, those whose critical class is one
    component, and how many of them hold two subactions that do not agree up to a constant."""
    single = inconsistent = 0
    for _ in range(count):
        weights = {e: k / 7 + 1e12 for e, k in random_graph(rng, rng.randint(2, 8)).items()}
        g = optimize(graph_from_weights(weights))
        if len(g.critical_components) == 1:
            barrier = compute_barrier(g).values
            lifted = fixpoint_subaction(g, consistent_seed(g))
            single += 1
            inconsistent += not uniqueness_comparison(g, barrier, lifted).consistent
    return single, inconsistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-vertices", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    worst_mean = 0.0
    worst_barrier = 0.0
    cycle_mismatches = 0
    component_mismatches = 0
    started = time.perf_counter()
    for _ in range(args.count):
        weights = random_graph(rng, rng.randint(1, args.max_vertices))
        g = optimize(graph_from_weights(weights))
        worst_mean = max(worst_mean, abs(g.max_mean - oracle_max_mean(weights)))
        cycle_mismatches += g.critical_cycle != oracle_canonical_cycle(g.critical_edges)[1]
        component_mismatches += component_mismatch(g)
        result = compute_barrier(g)
        oracle = oracle_barrier(weights, result.base_vertex, g.max_mean)
        for v, value in result.values.items():
            worst_barrier = max(worst_barrier, abs(value - oracle[v]))
    large_count = args.count // 10
    worst_large = 0.0
    worst_offset = 0.0
    offset_mismatches = 0
    for _ in range(large_count):
        weights = random_graph(rng, rng.randint(20, 60))
        g = optimize(graph_from_weights(weights))
        worst_large = max(worst_large, abs(g.max_mean - oracle_karp_max_mean(weights)))
        component_mismatches += component_mismatch(g)
        shifted = {e: w / 64 + 1e12 for e, w in weights.items()}
        try:
            g = optimize(graph_from_weights(shifted))
        except GraphError as exc:
            print(f"optimize failed at the 1e12 offset: {exc}", file=sys.stderr)
            return 1
        deviation = abs(g.max_mean - oracle_karp_max_mean(shifted))
        worst_offset = max(worst_offset, deviation)
        offset_mismatches += deviation > _rounding_tol(g, DEFAULT_TOL)
        component_mismatches += component_mismatch(g)
    stage_two_mismatches = renewal_stage_two_mismatches()
    cache_mismatches = renewal_cache_mismatches()
    fits = 40 * args.count
    slope_bits, worst_slope = slope_differences(rng, fits)
    tie_failures = tie_heavy_failures(rng, args.count)
    tie_cache_mismatches = tie_heavy_cache_mismatches(rng, args.count)
    single, inconsistent = uniqueness_failures(rng, args.count)
    elapsed = time.perf_counter() - started

    print(f"graphs checked        {args.count}")
    print(f"worst mean deviation  {worst_mean:.3e}")
    print(f"worst barrier deviation {worst_barrier:.3e}")
    print(f"larger graphs checked {large_count}")
    print(f"worst mean deviation from Karp {worst_large:.3e}")
    print(f"worst mean deviation from Karp at offset 1e12 {worst_offset:.3e}")
    print(f"offset mean mismatches {offset_mismatches}")
    print(f"canonical cycle mismatches {cycle_mismatches}")
    print(f"critical component mismatches {component_mismatches}")
    print(f"renewal stage-two mismatches {stage_two_mismatches}")
    print(f"renewal cache round-trip mismatches {cache_mismatches}")
    print(f"probe slopes differing from statistics {slope_bits} of {fits}")
    print(f"worst probe slope difference {worst_slope:.3e}")
    print(f"tie-heavy graphs failing at tolerance {TIE_TOL:g} {tie_failures} of {args.count}")
    print(f"tie-heavy cache round-trip mismatches {tie_cache_mismatches} of {2 * args.count}")
    print(f"one-component classes at 1e12 with disagreeing subactions {inconsistent} of {single}")
    print(f"elapsed               {elapsed:.2f}s")
    if max(worst_mean, worst_barrier, worst_large) > args.tol:
        print("deviation beyond tolerance", file=sys.stderr)
        return 1
    if offset_mismatches:
        print("at offset 1e12 the mean strays past the rounding tolerance", file=sys.stderr)
        return 1
    if cycle_mismatches:
        print("canonical cycle differs from the brute-force cycle", file=sys.stderr)
        return 1
    if component_mismatches:
        print("critical components differ from the critical-edge oracle", file=sys.stderr)
        return 1
    if stage_two_mismatches:
        print("renewal stage-two core differs from the brute force", file=sys.stderr)
        return 1
    if cache_mismatches:
        print("a cached renewal stage differs from the freshly built one", file=sys.stderr)
        return 1
    if tie_cache_mismatches:
        print("a cached tie-heavy stage differs from the freshly built one", file=sys.stderr)
        return 1
    if worst_slope > 1e-12:
        print("the probe slope strays from statistics.linear_regression", file=sys.stderr)
        return 1
    if tie_failures:
        print("a tie-heavy graph failed its barrier walk or subaction check", file=sys.stderr)
        return 1
    if inconsistent:
        print("a one-component critical class holds two subactions that differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
