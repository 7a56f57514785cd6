"""Command line front end.

Reports are JSON (sorted keys, two-space indent) or, for per-vertex
tables, CSV with hyphen-joined vertex words.  Output is deterministic:
fixed tie-breaks upstream, sorted emission here, no timestamps anywhere.
Exit codes: 0 on success, 1 when --assert is set and a verdict fails,
2 on input errors.
"""

from __future__ import annotations

import gc
import math
import sys
from collections.abc import Mapping
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import DEFAULT_TOL, _OWNER

if TYPE_CHECKING:
    import argparse

    from .optimizer import WeightedMemoryGraph
    from .potential import PotentialSpec
    from .shift_space import FiniteShift, ShiftSpec, Word
    from .truncation import BoundednessProbe, TruncationFamily


# ``import peierls.cli`` loads no layer: handlers read each layer's names as attributes of
# this module (``_layers.optimize``), so the first read loads the layer through the
# package's lazy namespace and binds the name here, and a value already bound here (a
# wrapper installed with setattr, say) is the one that runs.
def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_layers = sys.modules[__name__]


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
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: bad value {raw!r}")
        word = _parse_word_key(key.strip())
        if word in values:
            raise ValueError(f"{path}:{lineno}: repeated vertex word {key.strip()!r}")
        values[word] = value
    if not values:
        raise ValueError(f"{path}: no value rows found")
    return values


def _emit(args: SimpleNamespace, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args: SimpleNamespace, payload: dict) -> None:
    import io
    import json  # here, like argparse, so that `import peierls.cli` loads neither

    report = {"schema": SCHEMA, **payload}
    text = io.StringIO()
    try:  # dump writes its chunks to one buffer; dumps would list them all, then join them
        json.dump(report, text, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # JSON has no inf or nan: name the first field that holds one
        for field in sorted(report):
            try:
                json.dumps(report[field], allow_nan=False)
            except ValueError:
                raise ValueError(f"report field {field!r} holds a non-finite number") from None
        raise
    _emit(args, text.getvalue() + "\n")


def _load_inputs(args: SimpleNamespace) -> tuple[ShiftSpec, PotentialSpec]:
    spec = _layers.parse_shift_spec(_read_text(args.shift))
    pot = _layers.parse_potential(_read_text(args.potential))
    _layers.validate_table(pot, spec)
    return spec, pot


def _finite_for(args: SimpleNamespace, spec: ShiftSpec) -> FiniteShift:
    if spec.max_letter() is not None:
        bound = spec.max_letter() if args.max_letter is None else args.max_letter
        finite = _layers.truncate(spec, bound)
        return _layers.transitive_core(finite, finite.letters)  # a split names its letter groups
    if args.max_letter is None:
        raise ValueError("--max-letter is required for countable-alphabet shifts")
    return _layers.covering_core(spec, range(args.max_letter + 1))


def _optimized_graph(args: SimpleNamespace) -> tuple[ShiftSpec, PotentialSpec, WeightedMemoryGraph]:
    spec, pot = _load_inputs(args)
    finite = _finite_for(args, spec)
    return spec, pot, _layers.optimize(_layers.build_memory_graph(finite, pot), args.tol)


def _cmd_shift_check(args: SimpleNamespace) -> int:
    spec = _layers.parse_shift_spec(_read_text(args.shift))
    transitive = None
    if spec.max_letter() is not None:
        transitive = _layers.is_transitive(_layers.truncate(spec, spec.max_letter()))
    _emit_json(
        args,
        {
            "kind": spec.kind,
            "bp": _plain(_layers.check_bp(spec, args.horizon)),
            "bi": _plain(_layers.check_bi(spec, args.horizon)),
            "transitive": transitive,
        },
    )
    return 0


def _cmd_optimize(args: SimpleNamespace) -> int:
    _, _, graph = _optimized_graph(args)
    _emit_json(
        args,
        {
            "m": graph.max_mean,
            "cycle": [list(v) for v in graph.critical_cycle],
            "critical_class_unique": graph.critical_class_unique,
        },
    )
    return 0


def _cmd_barrier(args: SimpleNamespace) -> int:
    spec, pot, graph = _optimized_graph(args)
    result = _layers.compute_barrier(graph)
    if args.format == "csv":
        rows = [f"{_word_key(v)},{value!r}" for v, value in sorted(result.values.items())]
        _emit(args, "\n".join(rows) + "\n")
        return 0

    base_letter = result.base_vertex[0]
    try:
        cutoff = _plain(_layers.letter_cutoff(spec, pot, graph.shift, base_letter))
    except _layers.TruncationError as exc:
        # the cutoff and bounds are diagnostics; their failure must not hide the barrier
        cutoff = {"letter": base_letter, "error": str(exc)}
    try:
        bounds = _plain(result.bounds)
    except _layers.TruncationError as exc:
        bounds = {"error": str(exc)}
    _emit_json(
        args,
        {
            "m": graph.max_mean,
            "base": list(result.base_vertex),
            "values": {_word_key(v): x for v, x in result.values.items()},
            "bounds": bounds,
            "cutoff": cutoff,
        },
    )
    return 0


def _cmd_subaction_verify(args: SimpleNamespace) -> int:
    _, _, graph = _optimized_graph(args)
    values = _load_values_csv(args.values)
    report = _layers.verify_subaction(graph, values)
    _emit_json(
        args,
        {
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


def _cmd_subaction_compare(args: SimpleNamespace) -> int:
    _, _, graph = _optimized_graph(args)
    first = _load_values_csv(args.values)
    second = _load_values_csv(args.values_b)
    report = _layers.uniqueness_comparison(graph, first, second)
    payload = _plain(report)
    payload.update(payload.pop("comparison"))
    _emit_json(args, payload)
    if args.assert_verdict and not report.comparison.is_constant_diff:
        return 1
    return 0


def _family_report(family: TruncationFamily, probe: BoundednessProbe | None) -> dict:
    """The fields ``converge`` and ``demo renewal`` share: a summary of each stage,
    whether the base and the cycle stay put, and the boundedness probe."""
    stages = [
        {
            "requested": stage.requested,
            "used": stage.used,
            "m": stage.graph.max_mean,
            "base": list(stage.graph.critical_cycle[0]),
            "cycle": [list(v) for v in stage.graph.critical_cycle],
            "vertices": len(stage.graph.vertices),
        }
        for stage in family.stages
    ]
    return {
        "stages": stages,
        "base_stable": family.base_stable,
        "cycle_stable": family.cycle_stable,
        "probe": _plain(probe),
    }


def _cmd_converge(args: SimpleNamespace) -> int:
    spec, pot = _load_inputs(args)
    family = _layers.build_family(spec, pot, args.stages, tol=args.tol, use_cache=args.use_cache)

    if args.format == "csv":
        rows = []
        for stage in family.stages:
            for v, value in sorted(stage.barrier.values.items()):
                rows.append(f"{stage.requested},{_word_key(v)},{value!r}")
        _emit(args, "\n".join(rows) + "\n")
        return 0

    stabilization = None
    if args.letters:
        stabilization = _layers.stabilization_experiment(family, args.letters)
    probe = None
    if args.scan_to is not None:
        probe = _layers.bp_boundedness_probe(family, spec, args.scan_to)
    _emit_json(args, {**_family_report(family, probe), "stabilization": _plain(stabilization)})
    if args.assert_verdict and stabilization is not None and not stabilization.ok:
        return 1
    return 0


def _cmd_demo_renewal(args: SimpleNamespace) -> int:
    spec = _layers.ShiftSpec(kind=_layers.KIND_RENEWAL, renewal_rule=(args.a, args.b))
    pot = _layers.PotentialSpec(
        depth=1, tail_kind=_layers.TAIL_LINEAR, tail_scale=1.0, table={(0,): 0.0}
    )
    family = _layers.build_family(spec, pot, args.stages, tol=args.tol, use_cache=args.use_cache)
    probe = _layers.bp_boundedness_probe(family, spec, args.scan_to)
    if probe.verdict == _layers.DIVERGENT:
        conclusion = "no bounded calibrated subaction exists."
    elif probe.verdict == _layers.BOUNDED:
        conclusion = "a bounded calibrated subaction exists."
    else:
        conclusion = "the probe is inconclusive."
    _emit_json(
        args,
        {
            **_family_report(family, probe),
            "renewal": {"a": args.a, "b": args.b},
            "m": family.stages[-1].graph.max_mean,
            "verdicts": {"bp": probe.bp.status, "boundedness": probe.verdict},
            "bi": _plain(_layers.check_bi(spec)),
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
        import argparse

        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


# Each option is a long flag and argparse's own ``add_argument`` keywords for it.
_SHIFT = ("--shift", dict(required=True, help="shift spec JSON file"))
_TOL = ("--tol", dict(type=float, default=DEFAULT_TOL))
_OUT = ("--out", dict(default=None, help="write the report here instead of stdout"))
_IO = (_SHIFT, ("--potential", dict(required=True, help="potential JSON file")))
_IO += (("--max-letter", dict(type=int, default=None)), _TOL, _OUT)
_FORMAT = ("--format", dict(choices=("json", "csv"), default="json"))
_ASSERT = ("--assert", dict(dest="assert_verdict", action="store_true", default=False))
_NO_CACHE = ("--no-cache", dict(dest="use_cache", action="store_false", default=True))
_GROUP_HELP = {
    "shift": "inspect a shift spec",
    "subaction": "verify or compare subaction tables",
    "demo": "worked examples end to end",
}

# The command line, one entry per command path: (path, handler, help, options in usage
# order).  ``_read`` parses it, ``_build_parser`` builds argparse from it.
_COMMANDS = (
    (("shift", "check"), _cmd_shift_check, "entry/exit boundedness and transitivity",
     (_SHIFT, _OUT, ("--horizon", dict(type=int, default=100)))),
    (("optimize",), _cmd_optimize, "maximum cycle mean and critical cycle", _IO),
    (("barrier",), _cmd_barrier, "barrier values from the base vertex", _IO + (_FORMAT,)),
    (("subaction", "verify"), _cmd_subaction_verify, "check a values CSV",
     _IO + (("--values", dict(required=True, help="CSV of vertex_word,value")), _ASSERT)),
    (("subaction", "compare"), _cmd_subaction_compare, "compare two values CSVs",
     _IO + (("--values", dict(required=True)), ("--values-b", dict(required=True)), _ASSERT)),
    (("converge",), _cmd_converge, "truncation family experiments", _IO + (
        ("--stages", dict(type=_int_list, required=True)),
        ("--letters", dict(type=_int_list, default=())),
        ("--scan-to", dict(type=int, default=None)), _NO_CACHE, _FORMAT, _ASSERT)),
    (("demo", "renewal"), _cmd_demo_renewal, "renewal shift divergence study",
     (("--a", dict(type=int, default=2)), ("--b", dict(type=int, default=0)),
      ("--stages", dict(type=_int_list, default=(6, 12, 24))),
      ("--scan-to", dict(type=int, default=23)), _TOL, _NO_CACHE, ("--out", dict(default=None)))),
)


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a command path followed by its own long flags, each at most
    once and with a value that does not start with ``-`` and converts; else None."""
    entry = next((e for e in _COMMANDS if tuple(argv[: len(e[0])]) == e[0]), None)
    if entry is None:
        return None
    path, handler, _, options = entry
    # argparse's dest of a long flag: its name with "-" read as "_"
    by_flag = {flag: (kw.get("dest", flag[2:].replace("-", "_")), kw) for flag, kw in options}
    args = {dest: kw.get("default") for dest, kw in by_flag.values()}
    tokens = iter(argv[len(path) :])
    for flag in tokens:
        dest, kw = by_flag.pop(flag, (None, None))
        if kw is None:
            return None
        if "action" in kw:
            args[dest] = kw["action"] == "store_true"
            continue
        value = next(tokens, "-")  # a flag without its value declines here
        if value.startswith("-"):
            return None
        try:
            args[dest] = value = kw.get("type", str)(value)
        except Exception:  # ValueError, or _int_list's ArgumentTypeError
            return None
        if value not in kw.get("choices", (value,)):
            return None
    if any(kw.get("required") for _, kw in by_flag.values()):
        return None
    return SimpleNamespace(handler=handler, **args)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``_COMMANDS``, for help text and usage errors."""
    import argparse

    description = "maximizing cycles, barriers and subactions on Markov shifts"
    parser = argparse.ArgumentParser(prog="peierls", description=description)
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, handler, leaf_help, options in _COMMANDS:
        if path[:-1] not in subparsers:
            node = subparsers[()].add_parser(path[0], help=_GROUP_HELP[path[0]])
            subparsers[path[:-1]] = node.add_subparsers(dest="action", required=True)
        command = subparsers[path[:-1]].add_parser(path[-1], help=leaf_help)
        for flag, kw in options:
            command.add_argument(flag, **kw)
        command.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    gc.disable()  # a run's graphs hold no cycles: the collector would only re-walk them
    code = run(sys.argv[1:])
    gc.freeze()  # the exit-time collections skip frozen objects, and nothing needs them
    sys.exit(code)


if __name__ == "__main__":
    main()
