"""A priori bounds on barrier values across a countable alphabet.

``optimizer.compute_barrier`` gives the exact barrier on a finite truncation.
This module bounds how those values would extend across the countable
alphabet: a per-letter ceiling from the cost of connecting the letter to the
base, a global ceiling from one-step excursions off low letters and from
partial laps of the maximizing cycle, and the two-stage cutoff estimate that
predicts which truncation bound is large enough for the values near a given
letter to stop moving.  The potential bounds they read ignore adjacency, so
they hold in every truncation.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add
from typing import Callable, Mapping, NamedTuple

from .countable import connecting_word, covering_core, least_entry_letter
from .digraph import least_exits
from .optimizer import GraphError, WeightedMemoryGraph, _edge, _numbered, _require_optimized
from .potential import TAIL_LINEAR, TAIL_LOG, PotentialError, PotentialSpec, tail_value
from .potential import _prefix_spread
from .shift_space import (
    KIND_FULL,
    KIND_RENEWAL,
    FiniteShift,
    ShiftSpec,
    TransitivityError,
    TruncationError,
    Word,
    _truncation_within_limit,
    is_transitive,
)

Vertex = Word

# Largest stage-two alphabet letter_cutoff accepts.
WIDE_BUDGET = 4096


class UpperBoundReport(NamedTuple):
    """A priori ceilings on barrier values, computed without the walk DP."""

    per_letter: Mapping[int, float]
    low_letter_peak: float
    base_cycle_peak: float
    low_letter_cutoff: int
    ambient_variation: float
    global_bound: float


class CutoffReport(NamedTuple):
    """Two-stage truncation estimate for one letter of interest.

    ``excursion_cutoff`` is the first stage's ceiling on letters a
    maximizing excursion near the letter can visit; ``confinement_bound``
    is the second stage's ceiling computed over a transitive core wide
    enough to contain every letter below the first ceiling.  Truncations
    at or beyond ``confinement_bound`` leave the barrier unchanged near
    the letter of interest.
    """

    letter: int
    excursion_cutoff: int
    confinement_bound: int
    local_connect_len: int
    wide_connect_len: int
    wide_bound: int


# ---------------------------------------------------------------------------
# adjacency-free bounds over the countable alphabet


def sup_bound_on_letter(pot: PotentialSpec, j: int) -> float:
    """Upper bound for f on the cylinder [j], valid in every truncation."""
    best = tail_value(pot, j)
    for word, value in pot.table.items():
        if word[0] == j and value > best:
            best = value
    return best


def inf_bound_on_letter(pot: PotentialSpec, j: int) -> float:
    worst = tail_value(pot, j)
    for word, value in pot.table.items():
        if word[0] == j and value < worst:
            worst = value
    return worst


def _letter_floors(pot: PotentialSpec) -> Callable[[int], float]:
    """``inf_bound_on_letter`` as a function of the letter, the table read once."""
    lows: dict[int, float] = {}
    for word, value in pot.table.items():
        lows[word[0]] = min(value, lows.get(word[0], value))
    return lambda j: min(tail_value(pot, j), lows.get(j, math.inf))


def ambient_var_j(pot: PotentialSpec, j: int) -> float:
    """Adjacency-free upper bound for Var_j(f).

    Words sharing a first letter but off the table all take the tail value,
    so only table prefixes can open a spread; the tail value joins every
    group because some continuation always escapes the finite table.
    """
    # j >= 1, so every word under one prefix shares its first letter and its fallback
    return _prefix_spread(
        pot, j, lambda: [*pot.table.items(), *((w, tail_value(pot, w[0])) for w in pot.table)]
    )


def ambient_total_variation(pot: PotentialSpec) -> float:
    return reduce(add, (ambient_var_j(pot, j) for j in range(1, pot.depth)), 0.0)


def coercive_letter_bound(pot: PotentialSpec, threshold: float) -> int:
    """Largest letter whose sup bound still reaches the threshold.

    Every letter j strictly above the returned bound satisfies
    sup f|[j] < threshold.  Log tails can place the bound astronomically
    high, so the tail inversion runs in integer/decimal arithmetic rather
    than floats.
    """
    if not math.isfinite(threshold):
        raise PotentialError("threshold must be finite")
    c = pot.tail_scale
    if pot.tail_kind == TAIL_LINEAR:
        # -c*j >= t  <=>  j <= -t/c
        limit = -threshold / c
        tail_best = math.floor(limit) if limit >= 0 else -1
    else:
        # -c*ln(1+j) >= t  <=>  j <= exp(-t/c) - 1
        exponent = -threshold / c
        if exponent < 0:
            tail_best = -1
        else:
            from decimal import Decimal, localcontext  # only this branch needs it

            digits = int(exponent / math.log(10.0)) + 25
            with localcontext() as ctx:
                ctx.prec = max(digits, 28)
                bound = Decimal(exponent).exp() - 1
                tail_best = int(bound.to_integral_value(rounding="ROUND_FLOOR"))
    # guard against the inversion landing next to an integer; past 2**52 the
    # float tail cannot tell neighbouring letters apart, so the steps would never end
    if tail_best < 2**52:
        while tail_value(pot, tail_best + 1) >= threshold:
            tail_best += 1
        while tail_best >= 0 and tail_value(pot, tail_best) < threshold:
            tail_best -= 1
    best = tail_best
    for word, value in pot.table.items():
        if value >= threshold and word[0] > best:
            best = word[0]
    return max(best, 0)


# ---------------------------------------------------------------------------
# bounds on barrier values and truncations


def _bound_report(graph: WeightedMemoryGraph, values: Mapping[Vertex, float]) -> UpperBoundReport:
    pot, m = graph.pot, graph.max_mean
    ambient = ambient_total_variation(pot)
    per_letter = _letter_ceilings(graph, ambient)

    num = _numbered(graph)
    cycle = [num.index[v] for v in graph.critical_cycle]
    lap = 0.0
    cycle_peak = 0.0
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        lap += num.weights[_edge(num, u, v)] - m
        cycle_peak = max(cycle_peak, lap)

    cutoff = _printable_letter_bound(pot, m - ambient, "low-letter cutoff")
    firsts: dict[int, set[int]] = {}  # successors of the vertices starting with each low letter
    for u, word in enumerate(num.words):
        if word[0] <= cutoff:
            firsts.setdefault(word[0], set()).update(num.succ[u])
    # the least successor by number is the least by word: the numbering is in word order
    low_peak = max((values[num.words[min(t)]] for t in firsts.values()), default=float("-inf"))
    global_bound = max(low_peak, cycle_peak) + ambient

    # a ceiling past the float range bounds nothing, and JSON has no number for it
    named = [(f"ceiling on letter {a}", c) for a, c in per_letter.items() if not math.isfinite(c)]
    named += [("low-letter peak", low_peak), ("base-cycle peak", cycle_peak)]
    for what, ceiling in named + [("global bound", global_bound)]:
        if not math.isfinite(ceiling):
            raise TruncationError(f"{what} is not finite, got {ceiling!r}")
    return UpperBoundReport(
        per_letter=per_letter,
        low_letter_peak=low_peak,
        base_cycle_peak=cycle_peak,
        low_letter_cutoff=cutoff,
        ambient_variation=ambient,
        global_bound=global_bound,
    )


def barrier_length_profile(
    graph: WeightedMemoryGraph, vertex: Vertex, n_max: int
) -> tuple[float, ...]:
    """Best reduced weight of a length-n walk from the base to ``vertex``, n = 0..n_max.

    Unreachable lengths give -inf; the barrier value is the supremum of
    the profile as n_max grows.
    """
    _require_optimized(graph)
    if vertex not in graph.succ:
        raise GraphError(f"unknown vertex {vertex!r}")
    if n_max < 0:
        raise GraphError("n_max must be nonnegative")
    row = {graph.critical_cycle[0]: 0.0}  # best reduced weight of an n-edge walk, by end vertex
    profile = [row.get(vertex, float("-inf"))]
    for _ in range(n_max):
        reached: dict[Vertex, float] = {}
        for u, base in row.items():
            for v in graph.succ[u]:
                cand = base + graph.weights[(u, v)] - graph.max_mean
                reached[v] = max(reached.get(v, cand), cand)
        row = reached
        profile.append(row.get(vertex, float("-inf")))
    return tuple(profile)


def _letter_ceilings(graph: WeightedMemoryGraph, ambient: float) -> dict[int, float]:
    """Ceiling on barrier values at vertices starting with each letter of the graph's shift.

    Any walk from the base to such a vertex can be closed into a periodic
    word through a shortest connecting word back to the base letter; the
    closed lap has mean at most the maximum, which caps the open part by
    the connector's length times (mean - cheapest letter value) plus the
    variation correction.  One table of least exits to the base letter serves
    every letter: a least connecting word leaves ``a`` through its exit letter
    and goes on as that letter's word, so its cheapest letter value is a
    running minimum in order of distance.
    """
    finite, pot = graph.shift, graph.pot
    base = graph.critical_cycle[0][0]
    exits = least_exits(base, finite.pred) if base in finite.pred else {}
    for a in finite.letters:
        if a not in exits:
            connecting_word(finite, a, base)  # raises the connector's own error
    floor_of = _letter_floors(pot)
    floor = {base: floor_of(base)}  # cheapest letter value on the way to base
    ceilings = {}
    for a, (length, nxt) in exits.items():  # nearest first, so floor[nxt] is known
        low = min(floor_of(a), floor[nxt])
        floor.setdefault(a, low)  # floor[base] stays its own value: a connector stops there
        ceilings[a] = length * (graph.max_mean - low) + ambient
    return ceilings


def _printable_letter_bound(pot: PotentialSpec, threshold: float, what: str) -> int:
    """``coercive_letter_bound``, or ``TruncationError`` naming ``what`` when the threshold
    is not finite, -threshold / c passes the float range, or the bound has more digits than
    Python writes as text.

    A threshold overflows to -inf when table values near the float limit enter it, and a
    finite one near that limit still overflows -threshold / c when c < 1, for either tail.
    A log tail's bound is floor(exp(-threshold / c)): its digit count comes from the
    exponent, sparing an exponential that takes seconds at 10,000 digits.  A bound too
    long to print would sink the whole command.  A limit of 0 (or none, before 3.10.7)
    means any.
    """
    if not math.isfinite(threshold):
        raise TruncationError(f"{what} needs a finite threshold, got {threshold!r}")
    exponent = -threshold / pot.tail_scale
    if not math.isfinite(exponent):
        raise TruncationError(f"{what} passes the float range")
    if pot.tail_kind == TAIL_LOG:
        digits = math.floor(exponent / math.log(10.0)) + 1
        if 0 < getattr(sys, "get_int_max_str_digits", int)() < digits:
            raise TruncationError(f"{what} has {digits} digits, too many to write as decimal text")
    return coercive_letter_bound(pot, threshold)


def letter_cutoff(
    spec: ShiftSpec,
    pot: PotentialSpec,
    finite: FiniteShift,
    letter: int,
) -> CutoffReport:
    """Truncation bound past which barrier values near ``letter`` are final.

    Stage one bounds the letters a maximizing excursion can visit before
    returning near ``letter``, using connecting words inside the given
    core.  Stage two replays the argument on a transitive core wide
    enough to contain all of stage one's letters, which confines every
    maximizing walk below the reported bound; on a renewal or full shift
    that core is known in closed form and none is built.  ``WIDE_BUDGET`` caps
    the stage-two alphabet; slowly decaying tails can push the first-stage
    cutoff beyond any practical truncation, or the bound past the digits
    Python writes as text, and either failure raises ``TruncationError``.
    """
    if letter not in finite.pred:
        raise GraphError(f"letter {letter} is not in the truncation")
    if not is_transitive(finite):
        raise TransitivityError("the truncation handed to letter_cutoff must be transitive")

    local_len = max(n for n, _ in least_exits(letter, finite.pred).values())
    floor_of = _letter_floors(pot)
    floor = min(map(floor_of, finite.letters))
    ambient = ambient_total_variation(pot)
    threshold = min(local_len * floor - ambient, 0.0)
    excursion_cutoff = _printable_letter_bound(
        pot, threshold, f"excursion cutoff for letter {letter}"
    )

    def within_budget(top: int) -> None:
        if top > WIDE_BUDGET:
            raise TruncationError(
                f"stage-two alphabet for letter {letter} needs letters up to {top}, "
                f"beyond the budget {WIDE_BUDGET}"
            )

    cap = spec.max_letter()  # a finite alphabet's stage two stops at its top letter
    target = excursion_cutoff + 1 if cap is None else min(excursion_cutoff + 1, cap)
    within_budget(target)
    if spec.kind == KIND_RENEWAL:
        # The renewal core is exactly 0..K (see covering_core), and its
        # longest least walk i -> b has K + 1 edges without search.  The only
        # cycle through K steps down K times and jumps back from 0, so K -> K
        # takes K + 1 edges.  For i > b the walk steps down i - b <= K times.
        # For i <= b it steps down to 0, jumps to the least entry e(b) >= b
        # and steps down to b, i + 1 + e(b) - b <= K + 1 edges in all.
        wide_bound = least_entry_letter(spec, max(target, max(finite.letters)))
        wide_len, wide_letters = wide_bound + 1, range(wide_bound + 1)
    elif spec.kind == KIND_FULL:
        # The full core is 0..K, K the top wanted letter inside the alphabet, after
        # covering_core's size check; every pair is an edge, so every least walk is one.
        wide_bound = max(target, max(finite.letters))
        _truncation_within_limit(spec, wide_bound)
        within_budget(wide_bound)
        wide_len, wide_letters = 1, range(wide_bound + 1)
    else:
        core = covering_core(spec, set(range(target + 1)) | set(finite.letters))
        wide_bound, wide_letters = max(core.letters), core.letters
        within_budget(wide_bound)  # before one least-walk table per core letter
        wide_len = max(n for b in core.letters for n, _ in least_exits(b, core.pred).values())
    wide_floor = min(map(floor_of, wide_letters))
    wide_threshold = wide_len * wide_floor - ambient
    confinement = 1 + _printable_letter_bound(
        pot, wide_threshold, f"confinement bound for letter {letter}"
    )
    return CutoffReport(
        letter=letter,
        excursion_cutoff=excursion_cutoff,
        confinement_bound=confinement,
        local_connect_len=local_len,
        wide_connect_len=wide_len,
        wide_bound=wide_bound,
    )
