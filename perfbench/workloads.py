"""Seeded op lists, input files and output checks for the benchmark workloads.

Every op of a workload does the same amount of work: one problem size per
workload, and rounds of two ops, one per renewal rule, whose costs match.  On
a shared machine whose speed drifts by tens of percent over seconds, a run's
median op time is steady only when every op is a sample of the same cost; a
spread of sizes would leave the median to whichever size a seed drew most.
The seed chooses everything the cost does not depend on: the order of the
rules, the shift's metric base, the first stage of a convergence ladder and
the zero pattern of a depth-3 table.

Checks are grounded in the closed forms of the guiding example and in the
README's round-trip pipeline.  Each check returns ``None`` for a correct
output and a short reason otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("renewal-barrier", "critical-pipeline", "converge-cold", "converge-warm")

# Distinct rounds generated per seed; a run cycles through them.
ROUNDS = 8
RULES = ((2, 0), (1, 1))
LAMBDAS = (0.25, 0.5, 0.75)

BARRIER_MAX_LETTER = 32
PIPELINE_LETTERS = 8
PIPELINE_ZERO_SHARE = 0.6
CONVERGE_END = 400
CONVERGE_SCAN_TO = 47
PROBE_VERDICT = {(2, 0): "DIVERGENT", (1, 1): "BOUNDED"}


@dataclass
class Op:
    """One timed unit: one or two ``peierls`` commands on seeded inputs."""

    key: str
    workload: str
    size: int
    rule: tuple[int, int] | None = None
    stages: tuple[int, ...] = ()
    files: dict[str, str] = field(default_factory=dict)

    def argvs(self, inputs: str, out_dir: str) -> list[list[str]]:
        """The op's ``peierls`` argument lists, inputs read from ``inputs``."""
        shift = f"{inputs}/{self.key}.shift.json"
        pot = f"{inputs}/{self.key}.pot.json"
        io = ["--shift", shift, "--potential", pot]
        if self.workload == "renewal-barrier":
            return [["barrier", *io, "--max-letter", str(self.size)]]
        if self.workload == "critical-pipeline":
            values = f"{out_dir}/values.csv"
            return [
                ["barrier", *io, "--format", "csv", "--out", values],
                ["subaction", "verify", *io, "--values", values, "--assert"],
            ]
        stages = ",".join(str(s) for s in self.stages)
        return [["converge", *io, "--stages", stages, "--scan-to", str(CONVERGE_SCAN_TO)]]

    def label(self) -> str:
        if self.rule is None:
            return f"{self.workload} n={self.size}"
        return f"{self.workload} renewal{self.rule} size={self.size}"


def _renewal_files(key: str, rule: tuple[int, int], rng: random.Random) -> dict[str, str]:
    shift = {"kind": "renewal", "lambda": rng.choice(LAMBDAS), "renewal": {"a": rule[0], "b": rule[1]}}
    pot = {"depth": 1, "tail": {"kind": "linear", "c": 1}, "table": [{"word": [0], "value": 0.0}]}
    return {f"{key}.shift.json": json.dumps(shift), f"{key}.pot.json": json.dumps(pot)}


def _pipeline_files(key: str, n: int, rng: random.Random) -> dict[str, str]:
    """Full shift on n letters, depth-3 table in {0, -1} with (i, i, i) at 0.

    Every diagonal word is a zero-weight self loop, so m = 0; with most
    entries at zero, nearly every vertex lies on a zero-weight cycle and
    the critical class spans the graph.
    """
    table = [
        {"word": [i, j, k], "value": 0.0 if i == j == k or rng.random() < PIPELINE_ZERO_SHARE else -1.0}
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ]
    shift = {"kind": "full", "lambda": rng.choice(LAMBDAS), "alphabet_size": n}
    pot = {"depth": 3, "tail": {"kind": "linear", "c": 1}, "table": table}
    return {f"{key}.shift.json": json.dumps(shift), f"{key}.pot.json": json.dumps(pot)}


def _ladder(rng: random.Random) -> tuple[int, ...]:
    """A doubling ladder up to CONVERGE_END; its first stage, drawn from the
    seed, is small enough that its cost barely moves the op's."""
    end = CONVERGE_END
    return (rng.randint(CONVERGE_SCAN_TO + 1, end // 8 + 10), end // 4, end // 2, end)


def _round(workload: str, seed: int, index: int, rng: random.Random) -> list[Op]:
    """Two ops: one per renewal rule, or two depth-3 tables."""
    ops: list[Op] = []
    for slot, rule in enumerate(RULES):
        key = f"s{seed}-r{index}-o{slot}"
        if workload == "critical-pipeline":
            n = PIPELINE_LETTERS
            ops.append(Op(key, workload, n, files=_pipeline_files(key, n, rng)))
        elif workload == "renewal-barrier":
            size = BARRIER_MAX_LETTER
            ops.append(Op(key, workload, size, rule, files=_renewal_files(key, rule, rng)))
        else:
            stages = _ladder(rng)
            ops.append(Op(key, workload, CONVERGE_END, rule, stages, _renewal_files(key, rule, rng)))
    rng.shuffle(ops)
    return ops


def make_rounds(workload: str, seed: int) -> list[list[Op]]:
    """The seeded rounds of a workload; the same seed gives the same rounds.

    ``converge-warm`` repeats the commands of the first ``converge-cold``
    round of the same seed, in a seeded order per round, so that its stage
    cache can be filled in set-up.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "converge-warm":
        pair = _round("converge-cold", seed, 0, random.Random(f"converge-cold:{seed}"))
        for op in pair:
            op.workload = workload
        rounds = []
        for _ in range(ROUNDS):
            order = list(pair)
            rng.shuffle(order)
            rounds.append(order)
        return rounds
    return [_round(workload, seed, i, rng) for i in range(ROUNDS)]


def input_files(rounds: list[list[Op]]) -> dict[str, str]:
    files: dict[str, str] = {}
    for ops in rounds:
        for op in ops:
            files.update(op.files)
    return files


def inputs_seen(rounds: list[list[Op]]) -> list[tuple]:
    """What the program sees, op by op: file contents and arguments, not file names."""
    return [(tuple(op.files.values()), op.size, op.stages) for ops in rounds for op in ops]


# --- checks -----------------------------------------------------------------


@dataclass
class Outcome:
    """What an op produced: one exit code and stdout per command, plus files."""

    codes: list[int]
    stdouts: list[str]
    values_csv: str | None = None


def _renewal_barrier_value(rule: tuple[int, int], letter: int) -> float:
    """Closed-form barrier of the linear-tail renewal example, based at letter 0."""
    if rule == (2, 0):
        return 0.0 if letter % 2 == 0 else -(letter + 1.0)
    return -2.0 if letter == 1 else 0.0


def _json(text: str) -> dict:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("report is not a JSON object")
    return payload


def check_renewal_barrier(op: Op, out: Outcome) -> str | None:
    if out.codes != [0]:
        return f"exit codes {out.codes}"
    report = _json(out.stdouts[0])
    if report.get("m") != 0.0:
        return f"m = {report.get('m')!r}, expected 0"
    if report.get("base") != [0]:
        return f"base = {report.get('base')!r}, expected [0]"
    values = report.get("values", {})
    letters = sorted(int(k) for k in values)
    if letters[: op.size + 1] != list(range(op.size + 1)):
        return f"values do not cover letters 0..{op.size}"
    for key, value in values.items():
        want = _renewal_barrier_value(op.rule, int(key))
        if value != want:
            return f"barrier at letter {key} is {value!r}, closed form gives {want!r}"
    if report.get("cutoff", {}).get("letter") != 0:
        return "cutoff report missing for the base letter"
    return None


def _parse_values_csv(text: str) -> dict[str, float]:
    rows = {}
    for line in text.splitlines():
        word, _, value = line.partition(",")
        rows[word] = float(value)
    return rows


def check_critical_pipeline(op: Op, out: Outcome) -> str | None:
    if out.codes != [0, 0]:
        return f"exit codes {out.codes}"
    values = _parse_values_csv(out.values_csv or "")
    if len(values) != op.size * op.size:
        return f"{len(values)} barrier rows, expected {op.size * op.size}"
    if max(values.values()) != 0.0:
        return "barrier values must peak at exactly 0, the base vertex"
    report = _json(out.stdouts[1])
    for flag in ("is_subaction", "is_calibrated", "supp_in_contact"):
        if report.get(flag) is not True:
            return f"verify reports {flag} = {report.get(flag)!r}"
    return None


def check_converge(op: Op, out: Outcome, reference: str | None = None) -> str | None:
    if out.codes != [0]:
        return f"exit codes {out.codes}"
    if reference is not None and out.stdouts[0] != reference:
        return "stdout differs from the cold run of the same command"
    report = _json(out.stdouts[0])
    stages = report.get("stages", [])
    if [s.get("requested") for s in stages] != list(op.stages):
        return "stage list differs from the requested ladder"
    for stage in stages:
        if stage.get("m") != 0.0 or stage.get("base") != [0]:
            return f"stage {stage.get('requested')} has m = {stage.get('m')!r}, base {stage.get('base')!r}"
    probe = report.get("probe") or {}
    floors = probe.get("floors", [])
    if [j for j, _ in floors] != list(range(CONVERGE_SCAN_TO + 1)):
        return f"probe floors do not cover letters 0..{CONVERGE_SCAN_TO}"
    for letter, floor in floors:
        want = _renewal_barrier_value(op.rule, letter)
        if floor != want:
            return f"probe floor at letter {letter} is {floor!r}, closed form gives {want!r}"
    want = PROBE_VERDICT[op.rule]
    if probe.get("verdict") != want:
        return f"probe verdict {probe.get('verdict')!r}, expected {want}"
    if probe.get("consistent") is not True:
        return "probe reports an inconsistent verdict pair"
    return None


def check(op: Op, out: Outcome, reference: str | None = None) -> str | None:
    """Check one op's output; ``reference`` is the cold stdout for warm ops."""
    try:
        if op.workload == "renewal-barrier":
            return check_renewal_barrier(op, out)
        if op.workload == "critical-pipeline":
            return check_critical_pipeline(op, out)
        return check_converge(op, out, reference)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc}"


# --- tampering, for the self-test --------------------------------------------


def flip_barrier_value(stdout: str) -> str:
    """Negate the barrier value at letter 1 of a barrier JSON report."""
    report = json.loads(stdout)
    report["values"]["1"] = -report["values"]["1"]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def swap_verdict(stdout: str) -> str:
    """Swap DIVERGENT and BOUNDED in a converge report's probe."""
    report = json.loads(stdout)
    swap = {"DIVERGENT": "BOUNDED", "BOUNDED": "DIVERGENT"}
    report["probe"]["verdict"] = swap[report["probe"]["verdict"]]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def flip_csv_value(text: str) -> str:
    """Negate the first nonzero value of a barrier CSV, or set the first to 1.0."""
    rows = [line.partition(",") for line in text.splitlines()]
    target = next((i for i, (_, _, v) in enumerate(rows) if float(v) != 0.0), 0)
    word, _, value = rows[target]
    rows[target] = (word, ",", repr(-float(value) if float(value) != 0.0 else 1.0))
    return "\n".join("".join(row) for row in rows) + "\n"
