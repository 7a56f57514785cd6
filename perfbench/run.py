"""Benchmark of the ``peierls`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload renewal-barrier --seed 1 --seconds 25 --trace 0

One client drives a closed loop: it runs one ``peierls`` subprocess at a
time (``python -m peierls.cli`` with the checkout's ``src`` first on
``PYTHONPATH``), times each op from spawn to exit, reads the child's CPU time
and peak RSS from ``os.wait4`` and checks every output.  Ops come in seeded
rounds (see ``workloads.py``) and the loop runs whole rounds until
``--seconds`` have passed.  The benchmark and its children are pinned to one
CPU, and end-to-end times are reported in reference seconds, scaled by a
fixed kernel timed around each op (see ``speed.py``); raw wall times are
printed beside them.

With ``--trace 1`` the same ops are replayed in-process through
``peierls.cli.run``, each op once plainly and once with spans around the
package's layers (``spans.py``); the two stdouts must match byte for byte,
and their time ratio is the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics without tracing, the
per-layer metrics with it.  Lines above it print every metric with its unit,
the environment, the self-test and the hold-out seed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer
from speed import SpeedMeter, pin_to_one_cpu
from workloads import Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

SETUP_REPEATS = 3
STARTUP_PROBES = 5
OP_TIMEOUT_S = 60.0
HOLDOUT_OFFSET = 1_000_003
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("op_cpu_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_frac", "ratio"),
)

# Per-op medians of the traced replay, except where noted in _layer_metrics.
PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("potential.parse_potential.s", "s"),
    ("potential.validate_table.s", "s"),
    ("shift_space.covering_core.s", "s"),
    ("shift_space.covering_core.calls", "count"),
    ("shift_space.core_letters", "count"),
    ("shift_space.connecting_word.s", "s"),
    ("shift_space.connecting_word.calls", "count"),
    ("optimizer.build_memory_graph.s", "s"),
    ("optimizer.optimize.s", "s"),
    ("optimizer.vertices", "count"),
    ("optimizer.edges", "count"),
    ("optimizer.critical_vertices", "count"),
    ("barrier.compute_barrier.s", "s"),
    ("barrier.compute_barrier.self_s", "s"),
    ("barrier.letter_cutoff.s", "s"),
    ("barrier.letter_cutoff.self_s", "s"),
    ("barrier.wide_letters", "count"),
    ("subaction.verify_subaction.s", "s"),
    ("truncation.build_family.s", "s"),
    ("truncation.build_stage.s", "s"),
    ("truncation.build_stage.self_s", "s"),
    ("truncation.cache_hit_frac", "ratio"),
    ("truncation.cache_bytes", "bytes"),
    ("truncation.bp_boundedness_probe.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


# How an op may use its stage cache: every stage written, every stage read, or untouched.
WRITE, READ, NONE = "write", "read", "none"
CACHE_USE = {"converge-cold": WRITE, "converge-warm": READ}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    code: int
    stdout: str
    wall: float
    cpu: float
    rss_kb: int


@dataclass
class OpResult:
    op: Op
    outcome: Outcome
    wall: float
    cpu: float = 0.0
    rss_kb: int = 0
    error: str | None = None
    scale: float = 1.0  # reference seconds per wall second around the op


@dataclass
class Context:
    env: dict[str, str]
    inputs: Path
    cache: Path  # the shared stage cache of converge-warm; an always-empty one otherwise
    scratch: Path
    references: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    _serial: int = 0

    def exec_dir(self) -> Path:
        """A fresh directory for one execution of an op."""
        self._serial += 1
        path = self.scratch / f"x{self._serial}"
        path.mkdir(parents=True)
        return path

    def cache_for(self, op: Op, exec_dir: Path) -> Path:
        """A fresh, empty stage cache for a cold op; the shared one otherwise."""
        cache = exec_dir / "cache" if CACHE_USE.get(op.workload) == WRITE else self.cache
        cache.mkdir(exist_ok=True)
        return cache


def spawn(argv: list[str], env: dict[str, str], cwd: Path, name: str = "stdout") -> Proc:
    """Run one child to exit; wall time from spawn to exit, rusage from wait4."""
    out_path = cwd / name
    with open(out_path, "wb") as out:
        start = perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd, env=env)
        killer = threading.Timer(OP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=child.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
    )


def peierls_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "peierls.cli", *args]


def _values_csv(exec_dir: Path) -> str | None:
    path = exec_dir / "values.csv"
    return path.read_text(encoding="utf-8") if path.exists() else None


def _snapshot(cache: Path) -> dict[str, tuple[int, int, int]]:
    snap = {}
    for entry in os.scandir(cache):
        stat = entry.stat()
        snap[entry.name] = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
    return snap


def _cache_error(op: Op, use: str, before: dict, after: dict) -> str | None:
    if use == WRITE:
        kept = {name: after.get(name) for name in before}
        new = [name for name in after if name not in before]
        stages = [name for name in new if name.startswith("stage-") and name.endswith(".json")]
        if kept != before or len(stages) != len(op.stages) or len(new) != len(stages):
            return f"cache gained {sorted(new)}, expected {len(op.stages)} new stage entries and no other change"
    elif after != before:
        return "warm cache changed, so a stage was recomputed" if use == READ else "stage cache was written"
    return None


def run_op(
    ctx: Context, op: Op, reference: str | None = None, cache: Path | None = None, use: str | None = None
) -> OpResult:
    """One op as subprocesses; by default cold converge ops get a fresh, empty cache."""
    use = use or CACHE_USE.get(op.workload, NONE)
    exec_dir = ctx.exec_dir()
    cache = cache or ctx.cache_for(op, exec_dir)
    env = dict(ctx.env, PEIERLS_CACHE_DIR=str(cache))
    before = _snapshot(cache)
    argvs = op.argvs(str(ctx.inputs), str(exec_dir))
    procs = [spawn(peierls_argv(argv), env, exec_dir, f"stdout.{i}") for i, argv in enumerate(argvs)]
    outcome = Outcome([p.code for p in procs], [p.stdout for p in procs], _values_csv(exec_dir))
    error = workloads.check(op, outcome, reference) or _cache_error(op, use, before, _snapshot(cache))
    if (exec_dir / ".peierls-cache").exists():
        error = "an op wrote .peierls-cache in its working directory"
    result = OpResult(
        op,
        outcome,
        wall=sum(p.wall for p in procs),
        cpu=sum(p.cpu for p in procs),
        rss_kb=max(p.rss_kb for p in procs),
        error=error,
    )
    shutil.rmtree(exec_dir)
    return result


def probe_startup(env: dict[str, str], cwd: Path) -> float:
    """Wall time of a child that only imports ``peierls.cli``; it must be this checkout's."""
    code = "import peierls.cli, sys; sys.stdout.write(peierls.cli.__file__)"
    proc = spawn([sys.executable, "-c", code], env, cwd)
    origin = Path(proc.stdout).resolve()
    if proc.code != 0 or SRC.resolve() not in origin.parents:
        raise BenchError(f"peierls.cli resolves to {proc.stdout!r}, not inside {SRC}")
    return proc.wall


def set_up(workload: str, rounds: list[list[Op]], base: Path, env: dict[str, str]) -> Context:
    """Write the seeded inputs, check the package resolves here, fill the warm cache."""
    inputs = base / "inputs"
    inputs.mkdir(parents=True)
    for name, text in workloads.input_files(rounds).items():
        (inputs / name).write_text(text, encoding="utf-8")
    ctx = Context(env, inputs, base / "cache", base / "exec")
    ctx.cache.mkdir()
    probe_startup(env, base)
    if workload == "converge-warm":
        for op in rounds[0]:
            result = run_op(ctx, op, cache=ctx.cache, use=WRITE)
            if result.error is not None:
                ctx.problems.append(f"filling the cache with {op.label()}: {result.error}")
            ctx.references[op.key] = result.outcome.stdouts[0]
    return ctx


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, else the maximum.

    Returns the value, its percentile and the number of ops beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def closed_loop(ctx: Context, rounds: list[list[Op]], seconds: float, meter: SpeedMeter) -> list[OpResult]:
    """Whole rounds, one op at a time, until ``seconds`` of wall time have passed."""
    results: list[OpResult] = []
    start = perf_counter()
    meter.scale()  # a fresh kernel time just before the first op
    index = 0
    while True:
        for op in rounds[index % len(rounds)]:
            result = run_op(ctx, op, ctx.references.get(op.key))
            result.scale = meter.scale()
            results.append(result)
        index += 1
        if perf_counter() - start >= seconds:
            return results


# --- traced in-process replay ------------------------------------------------


def _run_in_process(cli, argvs: list[list[str]], tracer: Tracer | None, exec_dir: Path) -> tuple[Outcome, float]:
    codes, stdouts, wall = [], [], 0.0
    for argv in argvs:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = cli.run(argv) if tracer is None else tracer.call("cli.run", cli.run, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            wall += perf_counter() - start
        codes.append(code)
        stdouts.append(buffer.getvalue())
    return Outcome(codes, stdouts, _values_csv(exec_dir)), wall


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path))


@dataclass
class Replay:
    results: list[OpResult]
    tracer: Tracer
    plain_wall: float
    traced_wall: float
    cache_bytes: list[int]
    origin: float


def replay(ctx: Context, rounds: list[list[Op]], seconds: float) -> Replay:
    """Each op in-process twice, plain and traced in alternating order."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import peierls.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"peierls.cli resolves to {cli.__file__}, not inside {SRC}")
    tracer = Tracer()
    results: list[OpResult] = []
    cache_bytes: list[int] = []
    plain_total = traced_total = 0.0
    origin = start = perf_counter()
    index = 0
    saved_cache_env = os.environ.get("PEIERLS_CACHE_DIR")
    try:
        while True:
            for op in rounds[index % len(rounds)]:
                op_id = len(results)
                tracer.op = op_id
                runs = {}
                for traced in (op_id % 2 == 1, op_id % 2 == 0):
                    exec_dir = ctx.exec_dir()
                    cache = ctx.cache_for(op, exec_dir)
                    os.environ["PEIERLS_CACHE_DIR"] = str(cache)
                    argvs = op.argvs(str(ctx.inputs), str(exec_dir))
                    if traced:
                        with tracer.installed():
                            runs[traced] = _run_in_process(cli, argvs, tracer, exec_dir)
                        cache_bytes.append(_dir_bytes(cache))
                    else:
                        runs[traced] = _run_in_process(cli, argvs, None, exec_dir)
                    shutil.rmtree(exec_dir)
                (plain, plain_wall), (traced_out, traced_wall) = runs[False], runs[True]
                plain_total += plain_wall
                traced_total += traced_wall
                error = workloads.check(op, traced_out, ctx.references.get(op.key))
                if error is None and (plain.stdouts != traced_out.stdouts or plain.values_csv != traced_out.values_csv):
                    error = "traced output differs from the untraced output"
                error = error or _replay_cache_error(op, tracer.counts.get(op_id, {}))
                results.append(OpResult(op, traced_out, traced_wall, error=error))
            index += 1
            if perf_counter() - start >= seconds:
                break
    finally:
        if saved_cache_env is None:
            os.environ.pop("PEIERLS_CACHE_DIR", None)
        else:
            os.environ["PEIERLS_CACHE_DIR"] = saved_cache_env
    return Replay(results, tracer, plain_total, traced_total, cache_bytes, origin)


def _replay_cache_error(op: Op, counts: dict[str, float]) -> str | None:
    stages, hits = counts.get("truncation.stages", 0), counts.get("truncation.cache_hits", 0)
    want = {WRITE: 0, READ: len(op.stages)}.get(CACHE_USE.get(op.workload))
    if want is not None and (stages != len(op.stages) or hits != want):
        return f"{hits} of {stages} stages came from the cache, expected {want}"
    return None


def _layer_metrics(rep: Replay, startup: float) -> dict[str, float]:
    rows = rep.tracer.per_op()
    ops = range(len(rep.results))
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        key = "cli.run.self_s" if name == "cli.self_s" else name
        values[name] = statistics.median(rows.get(op, {}).get(key, 0) for op in ops)
    stages = sum(row.get("truncation.stages", 0) for row in rows.values())
    hits = sum(row.get("truncation.cache_hits", 0) for row in rows.values())
    values["truncation.cache_hit_frac"] = hits / stages if stages else 0.0
    values["truncation.cache_bytes"] = statistics.median(rep.cache_bytes)
    values["cli.startup_s"] = startup
    values["trace.overhead_frac"] = rep.traced_wall / rep.plain_wall - 1.0
    return values


# --- self-test and hold-out seed ---------------------------------------------


def self_test(ctx: Context, sample: OpResult) -> list[tuple[str, bool]]:
    """Feed tampered copies of a real output to the checks; each must fail."""
    op, out = sample.op, sample.outcome
    if op.workload == "renewal-barrier":
        tampered = Outcome(out.codes, [workloads.flip_barrier_value(out.stdouts[0])])
        return [("flipped barrier value", workloads.check(op, tampered) is not None)]
    if op.workload.startswith("converge"):
        tampered = Outcome(out.codes, [workloads.swap_verdict(out.stdouts[0])])
        return [("swapped probe verdict", workloads.check(op, tampered) is not None)]
    exec_dir = ctx.exec_dir()
    (exec_dir / "values.csv").write_text(workloads.flip_csv_value(out.values_csv or ""), encoding="utf-8")
    verify = op.argvs(str(ctx.inputs), str(exec_dir))[1]
    proc = spawn(peierls_argv(verify), dict(ctx.env, PEIERLS_CACHE_DIR=str(ctx.cache)), exec_dir)
    tampered = Outcome([0, proc.code], ["", proc.stdout], _values_csv(exec_dir))
    shutil.rmtree(exec_dir)
    return [
        ("flipped barrier value: verify --assert exits 1", proc.code == 1),
        ("flipped barrier value: check fails", workloads.check(op, tampered) is not None),
    ]


def holdout(ctx: Context, workload: str, seed: int, rounds: list[list[Op]]) -> str | None:
    """A second seed must give other inputs that pass the same checks."""
    other = workloads.make_rounds(workload, seed + HOLDOUT_OFFSET)
    if workloads.inputs_seen(other) == workloads.inputs_seen(rounds):
        return "the hold-out seed produced the same inputs"
    op = other[0][0]
    for name, text in op.files.items():
        (ctx.inputs / name).write_text(text, encoding="utf-8")
    cache = ctx.scratch / "holdout-cache"
    cache.mkdir(parents=True)
    if workload == "converge-warm":
        cold = run_op(ctx, op, cache=cache, use=WRITE)
        if cold.error is not None:
            return f"hold-out cold fill of {op.label()}: {cold.error}"
        warm = run_op(ctx, op, cold.outcome.stdouts[0], cache=cache)
        return None if warm.error is None else f"hold-out {op.label()}: {warm.error}"
    result = run_op(ctx, op, cache=None if workload == "converge-cold" else cache)
    return None if result.error is None else f"hold-out {op.label()}: {result.error}"


# --- main --------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _fmt(name: str, value: float, unit: str) -> str:
    return f"  {name:<36} {value:>14.6g} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*workloads.WORKLOADS, "all"),
        help="one workload, or 'all' for every workload untraced and traced",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "peierls" / "cli.py").is_file():
        print(f"perfbench: no peierls package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds)))
        else:
            print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each run in a fresh process.

    A fresh process per run keeps the benchmark's own memory small: Linux
    charges a child spawned by vfork with the parent's peak RSS, so a parent
    grown by in-process replays would raise every later ``peak_rss_mb``.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            run = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            print(run.stdout, end="", flush=True)
            if run.returncode != 0:
                raise BenchError(f"{workload} trace={trace} exited {run.returncode}")
            result = json.loads(run.stdout.splitlines()[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}:{name}"] = metric
    return summary


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints its report and returns the result object."""
    run_dir = WORK / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: int, run_dir: Path) -> dict:
    stray = [ROOT / ".peierls-cache", Path.cwd() / ".peierls-cache"]
    stray_before = [path.exists() for path in stray]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.pop("PEIERLS_CACHE_DIR", None)
    rounds = workloads.make_rounds(workload, seed)
    cpu = pin_to_one_cpu()
    meter = SpeedMeter()
    setups = []
    for k in range(SETUP_REPEATS):
        meter.scale()  # a fresh kernel time just before the set-up
        start = perf_counter()
        ctx = set_up(workload, rounds, run_dir / f"setup{k}", env)
        setups.append((perf_counter() - start, meter.scale()))
    setup_s = statistics.median(wall * scale for wall, scale in setups)

    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={trace} cpu={cpu}")
    if trace:
        rep = replay(ctx, rounds, seconds)
        results = rep.results
    else:
        results = closed_loop(ctx, rounds, seconds, meter)
    startup = statistics.median(probe_startup(env, run_dir) for _ in range(STARTUP_PROBES))
    print(
        f"env python={platform.python_version()} nproc={os.cpu_count()} "
        f"cpu={_cpu_model()!r} cli.startup_s={startup:.6f}"
    )

    problems = list(ctx.problems)
    sample = next((r for r in results if r.error is None), None)
    if sample is None:
        problems.append("no op passed its checks, so the self-test has no output to tamper")
    else:
        for what, rejected in self_test(ctx, sample):
            print(f"self-test {what}: {'rejected' if rejected else 'ACCEPTED'}")
            if not rejected:
                problems.append(f"the check accepted a tampered output ({what})")
    held = holdout(ctx, workload, seed, rounds)
    print(f"hold-out seed {seed + HOLDOUT_OFFSET}: {'other inputs, checks pass' if held is None else held}")
    if held is not None:
        problems.append(held)
    for path, existed in zip(stray, stray_before):
        if path.exists() and not existed:
            problems.append(f"an op wrote {path}")

    failed = [r for r in results if r.error is not None]
    for r in failed[:5]:
        print(f"FAILED {r.op.label()}: {r.error}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    attempted = len(results)
    print(f"ops attempted={attempted} failed={len(failed)} failed_frac={len(failed) / attempted:.6g}")

    if trace:
        metrics = _layer_metrics(rep, startup)
        units = dict(PER_LAYER)
        spans_path = WORK / f"spans-{workload}-s{seed}.jsonl"
        rep.tracer.write_jsonl(str(spans_path), rep.origin)
        run = metrics["cli.run.s"] or float("nan")
        print(f"spans: {len(rep.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print(
            "shares of cli.run.s: "
            f"letter_cutoff {metrics['barrier.letter_cutoff.s'] / run:.3f}, "
            f"optimize {metrics['optimizer.optimize.s'] / run:.3f}, "
            f"optimize+compute_barrier {(metrics['optimizer.optimize.s'] + metrics['barrier.compute_barrier.s']) / run:.3f}"
        )
    else:
        walls = [r.wall * r.scale for r in results]
        tail_value, tail_pct, beyond = tail(walls)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": (attempted - len(failed)) / sum(walls),
            "op_s.p50": statistics.median(walls),
            "op_s.tail": tail_value,
            "op_cpu_s.p50": statistics.median(r.cpu * r.scale for r in results),
            "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
            "correct_frac": (attempted - len(failed)) / attempted,
        }
        units = dict(END_TO_END)
        raw = [r.wall for r in results]
        print(
            "times are in reference seconds (speed.py); raw wall: "
            f"setup_s {statistics.median(wall for wall, _ in setups):.6f}, "
            f"op_s.p50 {statistics.median(raw):.6f}, op_s.tail {tail(raw)[0]:.6f}, "
            f"op_cpu_s.p50 {statistics.median(r.cpu for r in results):.6f}, "
            f"ops_per_s {attempted / sum(raw):.6f}; "
            f"scale median {statistics.median(r.scale for r in results):.4f}"
        )
        print(f"setup_s is the median of {SETUP_REPEATS} set-ups")
        print(f"op_s.tail is p{tail_pct:.1f} of {attempted} ops, {beyond} beyond it")
        print(f"cli.startup_s / raw op_s.p50 = {startup / statistics.median(raw):.3f}")
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"peak_rss_mb cannot read below this process's own peak RSS, {own_mb:.1f} MB")
    for name, value in metrics.items():
        print(_fmt(name, value, units[name]))
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
