"""Finite-memory coercive potentials over a single-letter tail.

A potential of depth k reads only the first k letters of a point.  Values
come from a finite override table on depth-k words; every word off the
table falls back to the tail u(first letter), which decays linearly or
logarithmically and makes the potential coercive.

``var_j`` enumerates admissible words inside a given finite truncation and
is exact there; ``barrier`` holds the adjacency-free bounds over the full
countable alphabet that its cutoff and bound formulas consume.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .shift_space import FiniteShift, ShiftSpec, Word, is_admissible_word
from .shift_space import _is_int, _is_number, _json_object, _within_limit

TAIL_LINEAR = "linear"
TAIL_LOG = "log"


class PotentialError(ValueError):
    """A potential description violates the schema or its invariants."""


class _PotentialSpecFields(NamedTuple):
    depth: int
    tail_kind: str
    tail_scale: float
    table: Mapping[Word, float] = MappingProxyType({})


class PotentialSpec(_PotentialSpecFields):
    """Depth-k override table over a coercive single-letter tail, validated on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PotentialSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.depth < 1:
            raise PotentialError("depth must be at least 1")
        if self.tail_kind not in (TAIL_LINEAR, TAIL_LOG):
            raise PotentialError(f"unknown tail kind {self.tail_kind!r}")
        if not (self.tail_scale > 0.0) or not math.isfinite(self.tail_scale):
            raise PotentialError("tail scale c must be a positive finite number")
        for word, value in self.table.items():
            if len(word) != self.depth:
                raise PotentialError(
                    f"table word {word} has length {len(word)}, expected depth {self.depth}"
                )
            if any(not isinstance(l, int) or l < 0 for l in word):
                raise PotentialError(f"table word {word} must use nonnegative letters")
            if not math.isfinite(value):
                raise PotentialError(f"table value for {word} must be finite")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> PotentialSpec:
        return cls(*iterable)


def _float(number: int | float) -> float:
    """A JSON number as a float; an integer past the float range is infinite, like 1e400."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def parse_potential(document: str) -> PotentialSpec:
    """Parse the JSON wire format for potentials."""
    raw = _json_object(document, PotentialError, "potential")
    depth = raw.get("depth")
    if not _is_int(depth):
        raise PotentialError("depth must be an integer")
    tail = raw.get("tail")
    if not isinstance(tail, dict) or "kind" not in tail or "c" not in tail:
        raise PotentialError('potentials need {"tail": {"kind": ..., "c": ...}}')
    kind = tail["kind"]
    c = tail["c"]
    if not _is_number(c):
        raise PotentialError("tail scale c must be a number")
    entries = raw.get("table", [])
    if not isinstance(entries, list):
        raise PotentialError("table must be a list of {word, value} entries")
    table: dict[Word, float] = {}
    for item in entries:
        if not isinstance(item, dict) or "word" not in item or "value" not in item:
            raise PotentialError(f"table entries must be {{word, value}} objects, got {item!r}")
        word_raw = item["word"]
        if not isinstance(word_raw, list) or not all(map(_is_int, word_raw)):
            raise PotentialError(f"table word must be a list of integers, got {word_raw!r}")
        value = item["value"]
        if not _is_number(value):
            raise PotentialError(f"table value must be a number, got {value!r}")
        word = tuple(word_raw)
        if word in table:
            raise PotentialError(f"duplicate table word {list(word)}")
        table[word] = _float(value)
    return PotentialSpec(depth=depth, tail_kind=str(kind), tail_scale=_float(c), table=table)


def validate_table(pot: PotentialSpec, spec: ShiftSpec) -> None:
    """Reject table words that are not admissible in the hosting shift."""
    for word in sorted(pot.table):
        if not is_admissible_word(spec, word):
            raise PotentialError(f"table word {list(word)} is not admissible in the shift")


def tail_value(pot: PotentialSpec, j: int) -> float:
    if j < 0:
        raise PotentialError("letters are nonnegative")
    if pot.tail_kind == TAIL_LINEAR:
        return -pot.tail_scale * j + 0.0
    return -pot.tail_scale * math.log1p(j) + 0.0


def evaluate(pot: PotentialSpec, word: Word) -> float:
    """Potential value on the cylinder of ``word``; reads the first ``depth`` letters."""
    if len(word) < pot.depth:
        raise PotentialError(
            f"word of length {len(word)} is shorter than the memory depth {pot.depth}"
        )
    key = tuple(word[: pot.depth])
    hit = pot.table.get(key)
    if hit is not None:
        return hit
    return tail_value(pot, word[0])


def admissible_words(finite: FiniteShift, length: int) -> list[Word]:
    """All admissible words of the given length, in lexicographic order.

    Built one letter at a time over the whole level, so no depth meets the recursion
    limit; each level stays sorted because the letters and successor lists are.  Each
    level is counted before it is built, and a count past the size limit raises."""
    if length < 1:
        raise ValueError("word length must be positive")
    words = [(first,) for first in finite.letters]
    for size in range(2, length + 1):
        count = sum(len(finite.succ[word[-1]]) for word in words)
        _within_limit(count, f"words of length {size}", ValueError)
        words = [word + (nxt,) for word in words for nxt in finite.succ[word[-1]]]
    return words


# ---------------------------------------------------------------------------
# truncation-exact oscillation


def _prefix_spread(pot: PotentialSpec, j: int, pairs: Callable[[], Iterable]) -> float:
    """Largest hi - lo of ``pairs()`` over words sharing a length-j prefix; 0.0 for j >= depth."""
    if j < 1:
        raise PotentialError("variation index j must be at least 1")
    if j >= pot.depth:
        return 0.0
    lo: dict[Word, float] = {}
    hi: dict[Word, float] = {}
    for word, value in pairs():
        prefix = word[:j]
        if prefix not in lo:
            lo[prefix] = hi[prefix] = value
        elif value < lo[prefix]:
            lo[prefix] = value
        elif value > hi[prefix]:
            hi[prefix] = value
    return max((hi[prefix] - lo[prefix] for prefix in lo), default=0.0)


def var_j(pot: PotentialSpec, finite: FiniteShift, j: int) -> float:
    """Largest |f(w) - f(w')| over admissible depth words sharing j letters."""
    return _prefix_spread(
        pot, j, lambda: ((w, evaluate(pot, w)) for w in admissible_words(finite, pot.depth))
    )
