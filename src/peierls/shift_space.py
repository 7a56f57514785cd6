"""Transition structures for one-sided Markov shifts on countable alphabets.

Letters are nonnegative integers and words are plain tuples of letters.
A shift is described by one of four transition rules:

* ``explicit-finite`` -- a finite alphabet with an explicit edge list;
* ``full``            -- every pair of letters admissible;
* ``renewal``         -- letter 0 loops, every letter steps down by one,
                         and 0 additionally jumps up to the arithmetic
                         entry letters ``a*n + b`` for n >= 1;
* ``oracle``          -- an arbitrary membership predicate, library-only.

Finite truncations keep the letters up to a bound and prune the letters
stranded by the cut; ``countable`` searches the bounds.  The JSON form's
metric parameter ``lambda`` is validated and not stored: oscillation
bookkeeping downstream is indexed by agreement length, which orders
cylinders the same way for every lambda in (0, 1), so no result depends
on it.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping, NamedTuple

from .digraph import adjacency, reaches_all, strongly_connected_components

Letter = int
Word = tuple[int, ...]

KIND_EXPLICIT = "explicit-finite"
KIND_FULL = "full"
KIND_RENEWAL = "renewal"
KIND_ORACLE = "oracle"

# Most letters (on a full or oracle shift, also edges) a truncation may hold, and most words of one
# length a memory graph may build: `optimize` on renewal a = 2*10^5, about that many letters,
# vertices and edges, peaked at 295 MB (6.9 s on a 2-core machine); memory grows linearly.
_SIZE_LIMIT = 250_000


class ShiftSpecError(ValueError):
    """A shift description violates the schema or its invariants."""


class TruncationError(ValueError):
    """A truncation request produced no usable letters."""


class TransitivityError(ValueError):
    """Required letters do not sit in a single strongly connected piece."""


def _within_limit(count: int, what: str, error: type[ValueError] = TruncationError) -> None:
    """Raise ``error`` naming ``count`` and the limit when ``count`` passes ``_SIZE_LIMIT``."""
    if count > _SIZE_LIMIT:
        raise error(f"{count} {what} exceed the size limit of {_SIZE_LIMIT}")


class _ShiftSpecFields(NamedTuple):
    kind: str
    alphabet_size: int | None = None
    edges: frozenset[tuple[int, int]] | None = None
    renewal_rule: tuple[int, int] | None = None
    membership: Callable[[int, int], bool] | None = None


class ShiftSpec(_ShiftSpecFields):
    """Immutable description of a (possibly countable) Markov shift.

    Built directly or through ``_replace``, every instance is validated here.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ShiftSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (KIND_EXPLICIT, KIND_FULL, KIND_RENEWAL, KIND_ORACLE):
            raise ShiftSpecError(f"unknown shift kind {self.kind!r}")
        if self.kind in (KIND_EXPLICIT, KIND_FULL):
            if self.alphabet_size is None or self.alphabet_size < 1:
                raise ShiftSpecError("finite kinds need a positive alphabet_size")
        if self.kind == KIND_EXPLICIT:
            if not self.edges:
                raise ShiftSpecError("explicit-finite shifts need a nonempty edge list")
            n = self.alphabet_size
            _within_limit(n, "letters of the alphabet", ShiftSpecError)  # before set(range(n))
            for i, j in self.edges:
                if not (0 <= i < n and 0 <= j < n):
                    raise ShiftSpecError(f"edge ({i}, {j}) uses a letter outside 0..{n - 1}")
            outs = {i for i, _ in self.edges}
            ins = {j for _, j in self.edges}
            stranded = sorted(set(range(n)) - (outs & ins))
            if stranded:
                raise ShiftSpecError(f"stranded letters with no loop through them: {stranded}")
        if self.kind == KIND_RENEWAL:
            if self.renewal_rule is None:
                raise ShiftSpecError("renewal shifts need an entry rule (a, b)")
            a, b = self.renewal_rule
            if a < 1 or b < 0:
                raise ShiftSpecError(
                    "entry rule must have a >= 1 and b >= 0 so entries strictly increase"
                )
        if self.kind == KIND_ORACLE and self.membership is None:
            raise ShiftSpecError("oracle shifts need a membership predicate")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> ShiftSpec:
        return cls(*iterable)

    def max_letter(self) -> int | None:
        """Largest letter for the finite kinds, None for countable alphabets."""
        if self.kind in (KIND_EXPLICIT, KIND_FULL):
            return self.alphabet_size - 1  # type: ignore[operator]
        return None


def _json_object(document: str, error: type[ValueError], noun: str) -> dict:
    """The JSON object ``document`` holds; ``error`` when it is not JSON or not an object."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{noun} document must be a JSON object")
    return raw


def _is_int(value: object) -> bool:  # a JSON integer
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:  # a JSON number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_shift_spec(document: str) -> ShiftSpec:
    """Parse the JSON wire format for shifts.

    The oracle kind has no serial form (the predicate is a Python callable)
    and is rejected here; construct ``ShiftSpec`` directly for that case.
    """
    raw = _json_object(document, ShiftSpecError, "shift")
    kind = raw.get("kind")
    if kind == KIND_ORACLE:
        raise ShiftSpecError("oracle shifts are library-only and have no JSON form")
    if kind not in (KIND_EXPLICIT, KIND_FULL, KIND_RENEWAL):
        raise ShiftSpecError(f"unknown shift kind {kind!r}")
    lam = raw.get("lambda", 0.5)
    if not _is_number(lam):
        raise ShiftSpecError("lambda must be a number in (0, 1)")

    if kind == KIND_RENEWAL:
        rule = raw.get("renewal")
        if not isinstance(rule, dict) or "a" not in rule or "b" not in rule:
            raise ShiftSpecError('renewal shifts need {"renewal": {"a": int, "b": int}}')
        a, b = rule["a"], rule["b"]
        if not (_is_int(a) and _is_int(b)):
            raise ShiftSpecError("renewal parameters a, b must be integers")
        fields: dict = {"renewal_rule": (a, b)}
    else:
        size = raw.get("alphabet_size")
        if not _is_int(size) or size < 1:
            raise ShiftSpecError("alphabet_size must be a positive integer")
        fields = {"alphabet_size": size}
    if kind == KIND_EXPLICIT:
        edges_raw = raw.get("edges")
        if not isinstance(edges_raw, list) or not edges_raw:
            raise ShiftSpecError("explicit-finite shifts need a nonempty edges list")
        edges: set[tuple[int, int]] = set()
        for item in edges_raw:
            if not isinstance(item, list) or len(item) != 2 or not all(map(_is_int, item)):
                raise ShiftSpecError(f"edge entries must be [i, j] integer pairs, got {item!r}")
            edges.add((item[0], item[1]))
        fields["edges"] = frozenset(edges)
    if not 0 < lam < 1:  # no float(): a 400-digit integer would overflow it
        raise ShiftSpecError("metric parameter lambda must lie strictly in (0, 1)")
    return ShiftSpec(kind=kind, **fields)


def renewal_is_entry(spec: ShiftSpec, j: int) -> bool:
    """Whether 0 -> j is granted by the arithmetic entry rule."""
    a, b = spec.renewal_rule  # type: ignore[misc]
    return j >= a + b and (j - b) % a == 0



def admissible(spec: ShiftSpec, i: int, j: int) -> bool:
    """Total two-letter admissibility predicate; letters off the alphabet give False."""
    if i < 0 or j < 0:
        return False
    if spec.kind == KIND_FULL:
        return i < spec.alphabet_size and j < spec.alphabet_size  # type: ignore[operator]
    if spec.kind == KIND_EXPLICIT:
        return (i, j) in spec.edges  # type: ignore[operator]
    if spec.kind == KIND_RENEWAL:
        if i == 0 and j == 0:
            return True
        if i == j + 1:
            return True
        return i == 0 and renewal_is_entry(spec, j)
    return bool(spec.membership(i, j))  # type: ignore[misc]


def is_admissible_word(spec: ShiftSpec, word: Word) -> bool:
    """Nonempty, each neighbour pair ``admissible``; a lone letter need only be on the alphabet."""
    if len(word) == 1:
        top = spec.max_letter()
        return word[0] >= 0 and (top is None or word[0] <= top)
    return bool(word) and all(admissible(spec, i, j) for i, j in zip(word, word[1:]))


# ---------------------------------------------------------------------------
# finite truncations


class FiniteShift(NamedTuple):
    """A finite letter set with the induced transition structure.

    Whether it is strongly connected is ``is_transitive``'s to decide.
    Two truncations are equal only when they are the same object.
    """

    letters: tuple[int, ...]
    succ: Mapping[int, tuple[int, ...]]
    pred: Mapping[int, tuple[int, ...]]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _make_finite(letters: Iterable[int], succ: Mapping[int, Iterable[int]]) -> FiniteShift:
    letters_t = tuple(sorted(letters))
    keep = set(letters_t)
    succ_t, pred_t = adjacency(
        letters_t, [(i, j) for i in letters_t for j in succ.get(i, ()) if j in keep]
    )
    return FiniteShift(letters=letters_t, succ=succ_t, pred=pred_t)


def _raw_truncation_edges(spec: ShiftSpec, top: int) -> dict[int, list[int]]:
    """Sorted successors of each letter of 0..top among those letters."""
    letters = range(top + 1)
    if spec.kind == KIND_RENEWAL:
        succ = {j: [j - 1] for j in letters}
        succ[0] = [j for j in letters if j == 0 or renewal_is_entry(spec, j)]
    elif spec.kind == KIND_EXPLICIT:  # its edges are given
        succ = {i: [] for i in letters}
        for i, j in sorted(spec.edges):
            if i <= top and j <= top:
                succ[i].append(j)
    else:  # full and oracle kinds go through the pair predicate
        succ = {i: [j for j in letters if admissible(spec, i, j)] for i in letters}
    return succ


def _truncation_within_limit(spec: ShiftSpec, top: int) -> None:
    """TruncationError when letters 0..top, or on a full or oracle shift their pairs, pass it."""
    _within_limit(top + 1, f"letters in 0..{top}")
    if spec.kind in (KIND_FULL, KIND_ORACLE):  # the kinds that ask the pair rule about every pair
        _within_limit((top + 1) ** 2, f"edges among letters 0..{top}")


def truncate(spec: ShiftSpec, max_letter: int) -> FiniteShift:
    """Induced structure on letters 0..max_letter, stranded letters pruned.

    Pruning runs to a fixpoint: a letter with no in-edge or no out-edge
    inside the retained set can never occur in a point of the truncated
    shift, and removing it may strand further letters.  A queue of stranded
    letters lowers the in- and out-edge counts of their neighbours in the
    cut's own lists, so each edge is read a bounded number of times; a cut
    that strands nothing is returned as built.
    """
    if max_letter < 0:
        raise TruncationError("max_letter must be nonnegative")
    cap = spec.max_letter()
    top = max_letter if cap is None else min(max_letter, cap)
    _truncation_within_limit(spec, top)
    cut = _make_finite(range(top + 1), _raw_truncation_edges(spec, top))
    ins = {i: len(near) for i, near in cut.pred.items()}
    outs = {i: len(near) for i, near in cut.succ.items()}
    dead = {i for i in cut.letters if not (ins[i] and outs[i])}
    queue = list(dead)
    for i in queue:  # grows while it is read
        for counts, near in ((ins, cut.succ[i]), (outs, cut.pred[i])):
            for j in near:
                counts[j] -= 1
                if not counts[j] and j not in dead:
                    dead.add(j)
                    queue.append(j)
    if not dead:  # a renewal truncation strands nothing
        return cut
    alive = [i for i in cut.letters if i not in dead]
    if not alive:
        raise TruncationError(
            f"no admissible cycle among letters 0..{max_letter}; truncation is empty"
        )
    return _make_finite(alive, cut.succ)


def is_transitive(finite: FiniteShift) -> bool:
    """Strong connectivity of the finite transition structure."""
    return reaches_all(finite.letters, finite.succ) and reaches_all(finite.letters, finite.pred)


def transitive_core(finite: FiniteShift, required: Iterable[int]) -> FiniteShift:
    """The strongly connected component through the required letters, ``finite`` if whole.

    Raises ``TransitivityError`` naming the separating groups when the
    required letters spread over several components; the caller should
    retry with a larger truncation bound.
    """
    req = sorted(set(required))
    missing = [l for l in req if l not in finite.pred]
    if missing:
        raise TransitivityError(f"letters {missing} are not present in the truncation")
    if is_transitive(finite):
        return finite
    comps = strongly_connected_components(finite.letters, finite.succ, finite.pred)
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for l in comp:
            comp_of[l] = ci
    if not req:
        req = [finite.letters[0]]
    hit = sorted({comp_of[l] for l in req})
    if len(hit) > 1:
        groups = sorted([l for l in req if comp_of[l] == ci] for ci in hit)
        raise TransitivityError(
            f"required letters split across {len(hit)} components: "
            + ", ".join(map(str, groups))
        )
    core = comps[hit[0]]
    return _make_finite(core, {i: finite.succ[i] for i in core})
