#!/usr/bin/env python3
"""Sweep renewal entry rules and tabulate boundedness verdicts.

For each rule (a, b) the script builds a truncation family, runs the
floor probe against the exact entry-condition check, and prints one row
per rule.  Disagreements between the two would be a bug, so the script
exits nonzero if any row is inconsistent.
"""

import argparse
import json
import sys

from peierls import (
    PotentialSpec,
    ShiftSpec,
    bp_boundedness_probe,
    build_family,
)


def parse_rules(text):
    rules = []
    for chunk in text.split(";"):
        a, b = chunk.split(",")
        rules.append((int(a), int(b)))
    return rules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=parse_rules, default="1,0;1,1;2,0;2,1;3,0;3,2")
    parser.add_argument("--stages", default="10,20,40")
    parser.add_argument("--scan-to", type=int, default=9)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--json", action="store_true", help="emit one JSON object per rule")
    args = parser.parse_args(argv)

    stages = [int(s) for s in args.stages.split(",")]
    pot = PotentialSpec(depth=1, tail_kind="linear", tail_scale=1.0, table={(0,): 0.0})

    rows = []
    for a, b in args.rules:
        spec = ShiftSpec(kind="renewal", renewal_rule=(a, b))
        family = build_family(spec, pot, stages, use_cache=not args.no_cache)
        probe = bp_boundedness_probe(family, spec, args.scan_to)
        rows.append(
            {
                "rule": [a, b],
                "m": family.stages[-1].graph.max_mean,
                "bp": probe.bp.status,
                "verdict": probe.verdict,
                "floor": probe.floor,
                "slope": probe.slope,
                "consistent": probe.consistent,
            }
        )

    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        print(f"{'rule':>8}  {'m':>6}  {'bp':>9}  {'verdict':>12}  {'floor':>8}  {'slope':>8}")
        for row in rows:
            floor = "-" if row["floor"] is None else f"{row['floor']:.2f}"
            slope = "-" if row["slope"] is None else f"{row['slope']:.3f}"
            a, b = row["rule"]
            print(
                f"{a:>4},{b:<3}  {row['m']:>6.2f}  {row['bp']:>9}  "
                f"{row['verdict']:>12}  {floor:>8}  {slope:>8}"
            )

    bad = [row for row in rows if not row["consistent"]]
    if bad:
        print(f"inconsistent verdict pairs: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
