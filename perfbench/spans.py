"""Spans around the package's layers, recorded from outside the package.

The tracer replaces a layer's public function at the module attribute its
caller looks it up through (``peierls.cli.optimize``,
``peierls.truncation.build_stage``, ...) with a wrapper that records a span:
name, start, end, parent span and op id.  ``peierls.digraph`` is reached only
through ``shift_space`` and ``optimizer`` and is counted inside their spans.
Spans stay in memory until the run writes them out as JSON lines; the
original functions are put back when the tracer is uninstalled.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# (module whose attribute is replaced, attribute, span name)
WRAP_SITES = (
    ("peierls.cli", "parse_shift_spec", "shift_space.parse_shift_spec"),
    ("peierls.cli", "truncate", "shift_space.truncate"),
    ("peierls.cli", "covering_core", "shift_space.covering_core"),
    ("peierls.cli", "parse_potential", "potential.parse_potential"),
    ("peierls.cli", "validate_table", "potential.validate_table"),
    ("peierls.cli", "build_memory_graph", "optimizer.build_memory_graph"),
    ("peierls.cli", "optimize", "optimizer.optimize"),
    ("peierls.cli", "compute_barrier", "barrier.compute_barrier"),
    ("peierls.cli", "letter_cutoff", "barrier.letter_cutoff"),
    ("peierls.cli", "verify_subaction", "subaction.verify_subaction"),
    ("peierls.cli", "build_family", "truncation.build_family"),
    ("peierls.cli", "bp_boundedness_probe", "truncation.bp_boundedness_probe"),
    ("peierls.truncation", "build_stage", "truncation.build_stage"),
    ("peierls.truncation", "covering_core", "shift_space.covering_core"),
    ("peierls.truncation", "build_memory_graph", "optimizer.build_memory_graph"),
    ("peierls.truncation", "optimize", "optimizer.optimize"),
    ("peierls.truncation", "compute_barrier", "barrier.compute_barrier"),
    ("peierls.truncation", "letter_cutoff", "barrier.letter_cutoff"),
    ("peierls.truncation", "check_bp", "shift_space.check_bp"),
    ("peierls.barrier", "covering_core", "shift_space.covering_core"),
    ("peierls.barrier", "connecting_word", "shift_space.connecting_word"),
)


def _count_optimize(result: Any) -> dict[str, float]:
    return {
        "optimizer.vertices": len(result.vertices),
        "optimizer.edges": len(result.weights),
        "optimizer.critical_vertices": len(result.critical_class),
    }


# Counters read off a layer's return value, keyed by span name.
COUNTERS: dict[str, Callable[[Any], dict[str, float]]] = {
    "optimizer.optimize": _count_optimize,
    "barrier.letter_cutoff": lambda r: {"barrier.wide_letters": r.wide_bound},
    "shift_space.covering_core": lambda r: {"shift_space.core_letters": len(r.letters)},
    "truncation.build_stage": lambda r: {
        "truncation.stages": 1,
        "truncation.cache_hits": int(r.from_cache),
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans and counters; one op id at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            counts = self.counts.setdefault(self.op, {})
            for key, value in counter(result).items():
                counts[key] = counts.get(key, 0) + value
        return result

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in WRAP_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: summed wall seconds, self seconds and calls of each span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: dict[int, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.op, {})
            duration = span.end - span.start
            row[f"{span.name}.s"] = row.get(f"{span.name}.s", 0.0) + duration
            row[f"{span.name}.self_s"] = row.get(f"{span.name}.self_s", 0.0) + duration - child_time[index]
            row[f"{span.name}.calls"] = row.get(f"{span.name}.calls", 0) + 1
        for op, counts in self.counts.items():
            table.setdefault(op, {}).update(counts)
        return table

    def write_jsonl(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "op": span.op,
                }
                handle.write(json.dumps(record) + "\n")
