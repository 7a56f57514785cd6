"""Command line front end.

Reports are JSON (sorted keys, two-space indent) or, for per-vertex
tables, CSV with hyphen-joined vertex words.  Output is deterministic:
fixed tie-breaks upstream, sorted emission here, no timestamps anywhere.
Exit codes: 0 on success, 1 when --assert is set and a verdict fails,
2 on input errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Mapping
from importlib import import_module
from typing import TYPE_CHECKING

from . import _LAYERS, _OWNER
from .optimizer import DEFAULT_TOL, WeightedMemoryGraph, build_memory_graph, optimize
from .potential import PotentialSpec, TAIL_LINEAR, parse_potential, validate_table
from .shift_space import (
    KIND_EXPLICIT,
    KIND_FULL,
    KIND_RENEWAL,
    FiniteShift,
    ShiftSpec,
    TruncationError,
    Word,
    check_bi,
    check_bp,
    covering_core,
    is_transitive,
    parse_shift_spec,
    truncate,
)

if TYPE_CHECKING:
    from .truncation import Stage


# A handler binds the names of a layer only some commands run with ``_load``
# before calling them through this module's globals; a value already bound
# here (a wrapper installed with setattr, say) is kept.
def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_OWNER[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


def _load(layer: str) -> None:
    for name in _LAYERS[layer].split():
        __getattr__(name)


SCHEMA = 1


def _plain(value):
    """``value`` ready for JSON, recursively: records become dicts, other
    mappings sorted [key, value] pairs, and lists and tuples lists."""
    if hasattr(value, "_asdict"):
        return {name: _plain(field) for name, field in value._asdict().items()}
    if isinstance(value, Mapping):
        return sorted([_plain(key), _plain(item)] for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _word_key(word: Word) -> str:
    return "-".join(str(l) for l in word)


def _parse_word_key(text: str) -> Word:
    try:
        return tuple(int(part) for part in text.split("-"))
    except ValueError:
        raise ValueError(f"malformed vertex word {text!r}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_values_csv(path: str) -> dict[Word, float]:
    values: dict[Word, float] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        key, _, raw = line.partition(",")
        if not raw:
            raise ValueError(f"{path}:{lineno}: expected 'vertex_word,value'")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value {raw!r}") from None
        values[_parse_word_key(key.strip())] = value
    if not values:
        raise ValueError(f"{path}: no value rows found")
    return values


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_inputs(args: argparse.Namespace) -> tuple[ShiftSpec, PotentialSpec]:
    spec = parse_shift_spec(_read_text(args.shift))
    pot = parse_potential(_read_text(args.potential))
    validate_table(pot, spec)
    return spec, pot


def _finite_for(args: argparse.Namespace, spec: ShiftSpec) -> FiniteShift:
    if spec.kind in (KIND_EXPLICIT, KIND_FULL):
        bound = spec.max_letter() if args.max_letter is None else args.max_letter
        return truncate(spec, bound)
    if args.max_letter is None:
        raise ValueError("--max-letter is required for countable-alphabet shifts")
    return covering_core(spec, range(args.max_letter + 1))


def _optimized_graph(
    args: argparse.Namespace,
) -> tuple[ShiftSpec, PotentialSpec, WeightedMemoryGraph]:
    spec, pot = _load_inputs(args)
    finite = _finite_for(args, spec)
    return spec, pot, optimize(build_memory_graph(finite, pot), args.tol)


def _cmd_shift_check(args: argparse.Namespace) -> int:
    spec = parse_shift_spec(_read_text(args.shift))
    transitive = None
    if spec.kind in (KIND_EXPLICIT, KIND_FULL):
        transitive = is_transitive(truncate(spec, spec.max_letter()))
    _emit_json(
        args,
        {
            "schema": SCHEMA,
            "kind": spec.kind,
            "bp": _plain(check_bp(spec, args.horizon)),
            "bi": _plain(check_bi(spec, args.horizon)),
            "transitive": transitive,
        },
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    _, _, graph = _optimized_graph(args)
    _emit_json(
        args,
        {
            "schema": SCHEMA,
            "m": graph.max_mean,
            "cycle": [list(v) for v in graph.critical_cycle],
            "critical_class_unique": graph.critical_class_unique,
        },
    )
    return 0


def _cmd_barrier(args: argparse.Namespace) -> int:
    _load("barrier")
    spec, pot, graph = _optimized_graph(args)
    result = compute_barrier(graph, args.tol)
    if args.format == "csv":
        rows = [f"{_word_key(v)},{value!r}" for v, value in sorted(result.values.items())]
        _emit(args, "\n".join(rows) + "\n")
        return 0

    base_letter = result.base_vertex[0]
    try:
        cutoff = _plain(letter_cutoff(spec, pot, graph.shift, base_letter))
    except TruncationError as exc:
        # the cutoff is a diagnostic; its failure must not hide the barrier
        cutoff = {"letter": base_letter, "error": str(exc)}
    _emit_json(
        args,
        {
            "schema": SCHEMA,
            "m": result.max_mean,
            "base": list(result.base_vertex),
            "values": {_word_key(v): x for v, x in result.values.items()},
            "bounds": _plain(result.bounds),
            "cutoff": cutoff,
        },
    )
    return 0


def _cmd_subaction_verify(args: argparse.Namespace) -> int:
    _load("subaction")
    _, _, graph = _optimized_graph(args)
    values = _load_values_csv(args.values)
    report = verify_subaction(graph, values, args.tol)
    _emit_json(
        args,
        {
            "schema": SCHEMA,
            "is_subaction": report.is_subaction,
            "worst_violation": report.worst_violation,
            "is_calibrated": report.is_calibrated,
            "uncalibrated": [_word_key(v) for v in report.uncalibrated_vertices],
            "contact_edges": sorted(
                [_word_key(u), _word_key(v)] for u, v in report.contact_edges
            ),
            "supp_in_contact": report.supp_in_contact,
        },
    )
    if args.assert_verdict and not (
        report.is_subaction and report.is_calibrated and report.supp_in_contact
    ):
        return 1
    return 0


def _cmd_subaction_compare(args: argparse.Namespace) -> int:
    _load("subaction")
    _, _, graph = _optimized_graph(args)
    first = _load_values_csv(args.values)
    second = _load_values_csv(args.values_b)
    report = uniqueness_comparison(graph, first, second, args.tol)
    payload = {"schema": SCHEMA, **_plain(report)}
    payload.update(payload.pop("comparison"))
    _emit_json(args, payload)
    if args.assert_verdict and not report.comparison.is_constant_diff:
        return 1
    return 0


def _stage_summary(stage: Stage) -> dict:
    return {
        "requested": stage.requested,
        "used": stage.used,
        "m": stage.graph.max_mean,
        "base": list(stage.barrier.base_vertex),
        "cycle": [list(v) for v in stage.graph.critical_cycle],
        "vertices": len(stage.graph.vertices),
    }


def _cmd_converge(args: argparse.Namespace) -> int:
    _load("truncation")
    spec, pot = _load_inputs(args)
    family = build_family(spec, pot, args.stages, tol=args.tol, use_cache=args.use_cache)

    if args.format == "csv":
        rows = []
        for stage in family.stages:
            for v, value in sorted(stage.barrier.values.items()):
                rows.append(f"{stage.requested},{_word_key(v)},{value!r}")
        _emit(args, "\n".join(rows) + "\n")
        return 0

    stabilization = None
    if args.letters:
        stabilization = stabilization_experiment(family, args.letters, args.tol)
    probe = None
    if args.scan_to is not None:
        probe = bp_boundedness_probe(family, spec, args.scan_to, args.tol)
    _emit_json(
        args,
        {
            "schema": SCHEMA,
            "stages": [_stage_summary(s) for s in family.stages],
            "base_stable": family.base_stable,
            "cycle_stable": family.cycle_stable,
            "stabilization": _plain(stabilization),
            "probe": _plain(probe),
        },
    )
    if args.assert_verdict:
        if stabilization is not None and not stabilization.ok:
            return 1
        if probe is not None and not probe.consistent:
            return 1
    return 0


def _cmd_demo_renewal(args: argparse.Namespace) -> int:
    _load("truncation")
    spec = ShiftSpec(kind=KIND_RENEWAL, renewal_rule=(args.a, args.b))
    pot = PotentialSpec(depth=1, tail_kind=TAIL_LINEAR, tail_scale=1.0, table={(0,): 0.0})
    family = build_family(spec, pot, args.stages, tol=args.tol, use_cache=args.use_cache)
    probe = bp_boundedness_probe(family, spec, args.scan_to, args.tol)
    if probe.verdict == DIVERGENT:
        conclusion = "no bounded calibrated subaction exists."
    elif probe.verdict == BOUNDED:
        conclusion = "a bounded calibrated subaction exists."
    else:
        conclusion = "the probe is inconclusive."
    _emit_json(
        args,
        {
            "schema": SCHEMA,
            "renewal": {"a": args.a, "b": args.b},
            "stages": [_stage_summary(s) for s in family.stages],
            "m": family.stages[-1].graph.max_mean,
            "base_stable": family.base_stable,
            "cycle_stable": family.cycle_stable,
            "probe": _plain(probe),
            "verdicts": {"bp": probe.bp.status, "boundedness": probe.verdict},
            "bi": _plain(check_bi(spec)),
            "conclusion": conclusion,
            "notes": [
                "every renewal rule fails the exit-set check: each letter j >= 1 has "
                "the single outgoing edge j -> j-1, so the transposed adjacency is "
                "reported under the same literal definitions rather than any looser "
                "convention."
            ],
        },
    )
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
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


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = run(sys.argv[1:])
    gc.freeze()  # the exit-time collections skip frozen objects, and nothing needs them
    sys.exit(code)


if __name__ == "__main__":
    main()
