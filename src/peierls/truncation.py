"""Increasing truncation families, stabilization experiments, divergence probe.

A family holds one optimized stage per requested bound.  Each stage is
the transitive core of the truncation at the smallest workable bound at
or above the request (a truncation can strand its top letters, so the
builder advances until the core covers the requested range and records
the substituted bound).  Larger stages only add walks, so the maximum
cycle mean never decreases along the family and per-vertex barrier
values never decrease where comparable.

Stage results are cached on disk keyed by the shift, the weights, the
requested bound and the tolerance, so sweeps over stage lists can reuse
earlier runs.  An entry holds its key and ``optimize``'s certificate:
Howard's mean and subaction h, the one result that needs policy iteration.
A hit checks them on the stage's graph with the rule ``optimize`` ends
with (``optimizer._certified``), which derives the tight edges, critical
components, canonical cycle, m and the uniqueness of the class, so it
reproduces the fresh stage bit for bit.  An entry an edge beats, whose h
does not fit the graph, or whose tight edges hold no cycle is a miss, and
so is one whose stored key is not the stage's own.  A stage walks its
barrier each time ``Stage.barrier`` is read, and only then.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zlib
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .countable import REFUTED, SATISFIED, UNDECIDED, ConditionVerdict, check_bp, covering_core
from .optimizer import (
    DEFAULT_TOL, BarrierResult, WeightedMemoryGraph, _certified, build_memory_graph,
    compute_barrier, optimize,
)
from .potential import PotentialSpec
from .shift_space import KIND_ORACLE, ShiftSpec

if TYPE_CHECKING:
    from .barrier import CutoffReport

BOUNDED = "BOUNDED"
DIVERGENT = "DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"

CACHE_SCHEMA = 5
MIN_TREND_LETTERS = 5
_INCONCLUSIVE_NOTES = {  # the probe's note by BP status when the floors leave it undecided
    SATISFIED: "the exact check says every letter is entered from a bounded set, yet the scanned "
        "floors trend downward; widen the scan to resolve the tension",
    REFUTED: "unbounded entry sets were found, but the scanned floors do not yet show an "
        "established downward trend",
    UNDECIDED: "the entry-set check was undecided within its horizon",
}


class FamilyError(ValueError):
    """The requested stage list cannot form a valid increasing family."""


class Stage(NamedTuple):
    """One optimized truncation, built or read from the cache; ``barrier`` walks it when read."""

    requested: int
    used: int
    graph: WeightedMemoryGraph
    from_cache: bool

    @property
    def barrier(self) -> BarrierResult:
        return compute_barrier(self.graph)


class TruncationFamily(NamedTuple):
    """Stages at increasing bounds, with whether the base and cycle stay put."""

    spec: ShiftSpec
    stages: tuple[Stage, ...]
    base_stable: bool
    cycle_stable: bool


class LetterStabilization(NamedTuple):
    """Observed and predicted stage at which one letter's values freeze."""

    letter: int
    observed_index: int | None
    observed_requested: int | None
    observed_used: int | None
    predicted: CutoffReport | None
    ok: bool | None
    note: str


class StabilizationReport(NamedTuple):
    """Per-letter stabilization entries and their joint verdict."""

    entries: tuple[LetterStabilization, ...]
    ok: bool


class BoundednessProbe(NamedTuple):
    """Final-stage barrier floors per letter, fused with the BP verdict."""

    floors: Mapping[int, float]
    bp: ConditionVerdict
    verdict: str
    floor: float | None
    slope: float | None
    fit_letters: tuple[int, ...]
    consistent: bool
    note: str


def _cache_path(key: str) -> str:
    # no hashlib, whose OpenSSL takes ms to load; the stored key makes a CRC collision a miss
    name = f"stage-{zlib.crc32(key.encode()):08x}-{len(key)}.json"
    return os.path.join(os.environ.get("PEIERLS_CACHE_DIR", ".peierls-cache"), name)


def _write_cache(path: str, payload: dict) -> None:
    """Best effort: a cache that cannot be written leaves the stage's result alone."""
    root = os.path.dirname(path)
    try:
        os.makedirs(root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))  # dump would encode in Python
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def build_stage(
    spec: ShiftSpec,
    pot: PotentialSpec,
    requested: int,
    tol: float = DEFAULT_TOL,
    use_cache: bool = True,
) -> Stage:
    """One optimized truncation stage, from cache when an entry matches."""
    if requested < 0:
        raise FamilyError("stage bounds must be nonnegative")
    core = covering_core(spec, range(requested + 1))
    graph = build_memory_graph(core, pot)
    # reprs of equal inputs listed in another order differ: a miss, never a wrong hit
    key = repr((spec, pot, requested, tol))
    path = _cache_path(key) if use_cache and spec.kind != KIND_ORACLE else None

    optimum = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry["schema"] == CACHE_SCHEMA and entry["key"] == key:
                optimum = _certified(graph, entry["mean"], entry["h"], tol)
        except (OSError, ValueError, KeyError, TypeError, OverflowError):
            pass  # a missing or corrupt entry is a miss, as is one whose certificate fails

    from_cache = optimum is not None
    if not from_cache:
        optimum = optimize(graph, tol)
        if path is not None:
            mean, h = optimum.certificate
            _write_cache(path, {"schema": CACHE_SCHEMA, "key": key, "mean": mean, "h": h})
    return Stage(requested=requested, used=max(core.letters), graph=optimum, from_cache=from_cache)


def build_family(
    spec: ShiftSpec,
    pot: PotentialSpec,
    max_letters: Iterable[int],
    tol: float = DEFAULT_TOL,
    use_cache: bool = True,
) -> TruncationFamily:
    """Optimized stages at each requested bound, with nesting checks."""
    requested = list(max_letters)
    if not requested:
        raise FamilyError("at least one stage bound is required")
    if any(b <= a for a, b in zip(requested, requested[1:])):
        raise FamilyError(f"stage bounds must be strictly increasing: {requested}")

    stages = tuple(
        build_stage(spec, pot, n, tol=tol, use_cache=use_cache) for n in requested
    )
    for prev, cur in zip(stages, stages[1:]):
        if not set(prev.graph.shift.letters) <= set(cur.graph.shift.letters):
            raise FamilyError(
                f"stage {cur.requested} lost letters present at stage {prev.requested}"
            )
        if cur.graph.max_mean < prev.graph.max_mean - cur.graph.tol:
            raise FamilyError(
                f"max mean dropped from {prev.graph.max_mean!r} at stage "
                f"{prev.requested} to {cur.graph.max_mean!r} at stage {cur.requested}"
            )
    return TruncationFamily(
        spec=spec,
        stages=stages,
        base_stable=len({s.graph.critical_cycle[0] for s in stages}) == 1,
        cycle_stable=len({s.graph.critical_cycle for s in stages}) == 1,
    )


def letter_cutoff(*args) -> CutoffReport:
    """``barrier.letter_cutoff``, whose layer loads only when a stabilization report asks."""
    from .barrier import letter_cutoff

    return letter_cutoff(*args)


def stabilization_experiment(
    family: TruncationFamily, letters_of_interest: Iterable[int]
) -> StabilizationReport:
    """Observed versus predicted stage at which per-letter values freeze.

    A letter's values have stabilized at a stage when every later stage
    assigns the same barrier value to each of the stage's vertices
    starting with that letter.  The prediction is the two-stage cutoff
    bound; observing stabilization at a larger bound than predicted
    falsifies the bound and fails the report.  Values compare at the final
    stage's ``graph.tol``, the tolerance its optimum was decided at.
    """
    if len(family.stages) < 2:
        raise FamilyError("stabilization needs at least two stages")
    final = family.stages[-1]
    tol = final.graph.tol
    values = [stage.barrier.values for stage in family.stages]  # each stage walked once
    entries: list[LetterStabilization] = []
    for letter in sorted(set(letters_of_interest)):
        observed: tuple[int | None, ...] = (None, None, None)
        predicted = None
        ok: bool | None = None
        note = "letter is missing from the widest stage"
        if letter in final.graph.shift.pred:
            for idx, stage in enumerate(family.stages):
                if letter not in stage.graph.shift.pred:
                    continue
                mine = {v: values[idx][v] for v in stage.graph.vertices if v[0] == letter}
                stable = all(
                    abs(value - later[v]) <= tol
                    for later in values[idx + 1 :]
                    for v, value in mine.items()
                )
                if stable:
                    observed = (idx, stage.requested, stage.used)
                    break
            try:
                predicted = letter_cutoff(family.spec, final.graph.pot, final.graph.shift, letter)
            except ValueError as exc:
                note = f"prediction unavailable: {exc}"
            else:  # observed is set: the final stage is stable
                ok = observed[2] <= predicted.confinement_bound
                note = "" if ok else "stabilized later than the predicted bound"
        entries.append(LetterStabilization(letter, *observed, predicted, ok, note))
    return StabilizationReport(
        entries=tuple(entries), ok=not any(e.ok is False for e in entries)
    )


def _slope(x: Sequence[float], y: Sequence[float]) -> float:
    """3.11's ``statistics.linear_regression`` slope, without loading decimal and fractions;
    ValueError when the sums pass the float range."""
    try:
        xbar, ybar = math.fsum(x) / len(x), math.fsum(y) / len(y)
        sxy = math.fsum((a - xbar) * (b - ybar) for a, b in zip(x, y))
    except OverflowError:
        raise ValueError("the probe's floors pass the float range in its slope fit") from None
    return sxy / math.fsum((d := a - xbar) * d for a in x)


def bp_boundedness_probe(
    family: TruncationFamily, spec: ShiftSpec, scan_to: int
) -> BoundednessProbe:
    """Final-stage barrier floors per letter, fused with the exact BP verdict.

    Letters entered only from strictly larger letters are the ones a
    bounded incoming alphabet would have to miss, so the floor trend is
    fitted over those.  The divergence call needs an established trend:
    at least MIN_TREND_LETTERS fitted letters, floors non-increasing, and
    fitted slope at most -tol, with tol the final stage's ``graph.tol``.
    BOUNDED needs BP SATISFIED and no such trend, DIVERGENT BP REFUTED and the
    trend; else INCONCLUSIVE.  So ``consistent`` holds on every input: a check and
    floors that disagree give INCONCLUSIVE, never an inconsistent pair.
    """
    if scan_to < 0:
        raise ValueError("scan_to must be nonnegative")
    final = family.stages[-1]
    tol = final.graph.tol
    if final.used < scan_to:
        raise FamilyError(f"final stage tops out at {final.used}, below scan_to={scan_to}")

    values = final.barrier.values
    floors: dict[int, float] = {}  # in one pass: vertices come in the order of their letters
    for v in final.graph.vertices:
        if v[0] <= scan_to and values[v] < floors.get(v[0], math.inf):
            floors[v[0]] = values[v]

    bp = check_bp(spec)

    fit = tuple(
        j
        for j in sorted(floors)
        if j >= 1 and final.graph.shift.pred[j] and min(final.graph.shift.pred[j]) > j
    )
    slope = _slope(fit, [floors[j] for j in fit]) if len(fit) >= 2 else None
    monotone = all(floors[b] <= floors[a] + tol for a, b in zip(fit, fit[1:]))
    trending_down = len(fit) >= MIN_TREND_LETTERS and monotone and slope <= -tol

    floor = None
    if bp.status == SATISFIED and not trending_down:
        verdict, floor = BOUNDED, min(floors.values())
        note = (
            "a bounded set of letters enters every letter, and the scanned floors "
            f"stay above {floor!r}"
        )
    elif bp.status == REFUTED and trending_down:
        verdict = DIVERGENT
        note = (
            f"floors over letters {fit[0]}..{fit[-1]} fall with slope {slope!r}; "
            "no bounded calibrated subaction can exist"
        )
    else:
        verdict, note = INCONCLUSIVE, _INCONCLUSIVE_NOTES[bp.status]
    consistent = not (
        (bp.status == SATISFIED and verdict == DIVERGENT)
        or (bp.status == REFUTED and verdict == BOUNDED)
    )
    return BoundednessProbe(
        floors=floors,
        bp=bp,
        verdict=verdict,
        floor=floor,
        slope=slope,
        fit_letters=fit,
        consistent=consistent,
        note=note,
    )
