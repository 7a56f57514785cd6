"""The countable alphabet around a finite truncation: covering cores, BP and BI.

Each finite truncation is exact on its own letters; this layer carries it across the
alphabet.  ``covering_core`` searches for the least truncation bound whose transitive core
covers given letters, ``connecting_word`` reads least connecting words inside a core, and
``check_bp`` / ``check_bi`` decide whether some finite set of letters steps into every
letter (BP) or is stepped into from every letter (BI).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, NamedTuple

from .digraph import least_word
from .shift_space import _SIZE_LIMIT, KIND_EXPLICIT, KIND_FULL, KIND_RENEWAL, FiniteShift
from .shift_space import ShiftSpec, TransitivityError, TruncationError, Word, admissible
from .shift_space import _truncation_within_limit, renewal_is_entry, transitive_core, truncate

SATISFIED = "SATISFIED"
REFUTED = "REFUTED"
UNDECIDED = "UNDECIDED"

# Cap on the number of refutation witnesses carried in a verdict.
MAX_WITNESSES = 24


def least_entry_letter(spec: ShiftSpec, n: int) -> int:
    """Least entry letter at or above ``n``, or 0 when ``n`` is 0: the top of a renewal core."""
    a, b = spec.renewal_rule  # type: ignore[misc]
    return a * max(1, -(-(n - b) // a)) + b if n >= 1 else 0


class ConditionVerdict(NamedTuple):
    """Outcome of a bounded-incoming or bounded-outgoing check."""

    condition: str  # "BP" or "BI"
    status: str  # SATISFIED | REFUTED | UNDECIDED
    bound: int | None
    witnesses: tuple[int, ...]
    detail: str


def _oracle_scan(
    condition: str, horizon: int, linked: Callable[[int, int], bool], edge: str, end: str
) -> ConditionVerdict:
    """Horizon-bounded scan shared by the oracle branches of the BP and BI checks.

    Refutes when some letter j <= horizon has no letter i <= horizon with
    ``linked(j, i)``; otherwise the alphabet continues past the horizon and
    the verdict stays undecided.
    """
    letters = range(horizon + 1)
    bad = tuple(j for j in letters if not any(linked(j, i) for i in letters))
    if bad:
        return ConditionVerdict(
            condition,
            REFUTED,
            None,
            bad[:MAX_WITNESSES],
            f"letters with no {edge} {end} <= {horizon}",
        )
    return ConditionVerdict(
        condition,
        UNDECIDED,
        None,
        (),
        f"every letter <= {horizon} has a bounded {end}, but the alphabet continues",
    )


def check_bp(spec: ShiftSpec, horizon: int = 100) -> ConditionVerdict:
    """Does some finite prefix of the alphabet reach every letter in one step?

    Satisfied with bound N when every letter j has an admissible i -> j
    with i <= N.  Exact for the generator kinds; for oracle shifts only a
    within-horizon refutation is decidable.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if spec.kind == KIND_FULL:
        return ConditionVerdict(
            "BP", SATISFIED, 0, (), "every letter is reachable from letter 0"
        )
    if spec.kind == KIND_EXPLICIT:
        n = spec.alphabet_size - 1  # type: ignore[operator]
        return ConditionVerdict(
            "BP", SATISFIED, n, (), "finite alphabet: all sources lie below the max letter"
        )
    if spec.kind == KIND_RENEWAL:
        a, b = spec.renewal_rule  # type: ignore[misc]
        if a == 1:
            # entries are cofinite; only letters 1..b lack an entry edge and
            # they are reached from the step-down edge j+1 -> j.
            bound = b + 1 if b >= 1 else 0
            return ConditionVerdict(
                "BP",
                SATISFIED,
                bound,
                (),
                f"entries cover every letter above {b}; letters 1..{b} enter from one step up",
            )
        missed = (j for j in range(1, horizon + 1) if not renewal_is_entry(spec, j))
        wit = tuple(islice(missed, MAX_WITNESSES))
        return ConditionVerdict(
            "BP",
            REFUTED,
            None,
            wit,
            "infinitely many letters miss the entry rule and are entered only from one step above",
        )
    return _oracle_scan(
        "BP", horizon, lambda j, i: admissible(spec, i, j), "incoming edge from any", "source"
    )


def check_bi(spec: ShiftSpec, horizon: int = 100) -> ConditionVerdict:
    """Mirror of ``check_bp`` for outgoing edges: j -> i with i <= N."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if spec.kind == KIND_FULL:
        return ConditionVerdict("BI", SATISFIED, 0, (), "every letter steps to letter 0")
    if spec.kind == KIND_EXPLICIT:
        n = spec.alphabet_size - 1  # type: ignore[operator]
        return ConditionVerdict(
            "BI", SATISFIED, n, (), "finite alphabet: all targets lie below the max letter"
        )
    if spec.kind == KIND_RENEWAL:
        wit = tuple(range(2, min(horizon, 2 + MAX_WITNESSES - 1) + 1))
        return ConditionVerdict(
            "BI",
            REFUTED,
            None,
            wit,
            "the only edge out of a letter j >= 1 is the step down to j-1, "
            "so no finite target set serves all letters",
        )
    return _oracle_scan(
        "BI", horizon, lambda j, i: admissible(spec, j, i), "outgoing edge to any", "target"
    )


def covering_core(spec: ShiftSpec, letters: Iterable[int]) -> FiniteShift:
    """Smallest-by-search transitive core containing the requested letters.

    Finds the least bound whose truncation's strongly connected component
    through the requested letters covers them all; a truncation can strand
    its top letters and need a larger bound.  A larger bound keeps every
    letter on a cycle and only merges components, so covering is monotone:
    the search doubles its step, then bisects, and ends where a scan one
    letter at a time would, at a cover or at the size limit.  A finite
    alphabet is searched up to its top letter, an oracle shift up to the
    size limit.  A renewal core needs no search.  For K an
    entry letter or 0, every letter of 0..K steps down to 0 and is reached
    from 0 through the jump to K, while a truncation between entry letters
    strands its top.  So the core is the truncation at the least such K at
    or above the requested letters.
    """
    cap = spec.max_letter()
    wanted = list(islice(letters, _SIZE_LIMIT + 1))  # a huge range stops here, unbuilt
    if len(wanted) > _SIZE_LIMIT:
        raise TruncationError(f"letters to cover number more than the size limit of {_SIZE_LIMIT}")
    wanted = sorted(set(wanted))
    if not wanted or wanted[0] < 0:
        raise ValueError("letters to cover must be a nonempty set of nonnegative ints")
    if spec.kind == KIND_RENEWAL:
        return truncate(spec, least_entry_letter(spec, wanted[-1]))
    if cap is not None:
        wanted = [l for l in wanted if l <= cap] or [0]
    last = max(wanted[-1], _SIZE_LIMIT) if cap is None else cap  # an oracle cut passes it first
    floor = 0  # on an explicit shift, a cut below a requested letter's least neighbour prunes it
    if spec.kind == KIND_EXPLICIT and wanted[-1] < last:  # else the one probe is at the top
        edges = sorted(spec.edges, reverse=True)  # a letter's least neighbour is written last
        succ, pred = {i: j for i, j in edges}, {j: i for i, j in edges}
        floor = max(max(succ[l], pred[l]) for l in wanted)

    def attempt(bound: int) -> FiniteShift | TruncationError | None:
        """The covering core at ``bound``, the size error past the limit, else None."""
        try:
            _truncation_within_limit(spec, bound)  # sizes only grow with the bound
        except TruncationError as exc:
            return exc
        if bound < floor:
            return None
        try:
            fin = truncate(spec, bound)  # a letter pruned or a split leaves them uncovered
            return transitive_core(fin, wanted) if all(l in fin.pred for l in wanted) else None
        except (TruncationError, TransitivityError):
            return None

    low, high, step, found = wanted[-1], last + 1, 1, None  # no attempt below low ends it
    while low < high:  # the step doubles until an attempt ends the search at high, then bisects
        probe = min(low + step - 1, high - 1) if found is None else (low + high) // 2
        result = attempt(probe)
        if result is None:
            low, step = probe + 1, 2 * step
        else:
            high, found = probe, result
    if isinstance(found, FiniteShift):
        return found
    raise found or TruncationError(
        f"no transitive truncation covering letters {wanted} found up to bound {last}"
    )


def connecting_word(finite: FiniteShift, a: int, b: int) -> Word:
    """Shortest word w making a.w.b admissible; lexicographically least on ties.

    The word may be empty (a -> b is a direct edge).  Raises ValueError
    when b is unreachable from a, which cannot happen on a transitive core.
    """
    if a not in finite.pred or b not in finite.pred:
        raise ValueError(f"letters {a}, {b} must both lie in the truncation")
    if not finite.succ[a]:
        raise ValueError(f"letter {a} has no outgoing edge")
    word = least_word(a, b, finite.pred)
    if word is None:
        raise ValueError(f"letter {b} is not reachable from letter {a}")
    return word
