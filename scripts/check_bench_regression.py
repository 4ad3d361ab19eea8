#!/usr/bin/env python3
"""Gate micro-bench regressions against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json \
        [--benchmark NAME]... [--threshold 0.25]

Both files are `hicc.bench.v1` records written by `bench/micro
--json=PATH`; the committed baseline is bench/BENCH_MICRO.json (see
docs/PERFORMANCE.md). Every baseline row must be present in the current
record. `--benchmark` may be repeated; each named row is gated
(default: BM_SimulatorScheduleRun).

Raw ns/op is not comparable across machines -- CI runners and the
machine that produced the committed baseline differ in clock speed,
turbo behavior, and co-tenancy. Every run therefore includes
BM_ReferenceSpin, a pure-ALU spin that measures the machine, not the
simulator. This script compares *normalized* cost,

    rel = ns_per_op(target) / ns_per_op(BM_ReferenceSpin)

and fails when the current run's `rel` exceeds the baseline's by more
than `--threshold` (default 25%).

Each gated row's allocs_per_op is also gated: the zero-allocation
steady state is a correctness property (see tests/sim_test.cpp
SteadyStateIsAllocationFree), so any drift above the baseline + 0.01
fails regardless of speed.

Exit codes: 0 pass, 1 perf/alloc regression, 2 malformed record -- not
JSON, wrong schema, a baseline row missing from the current record, a
gated row missing or with non-positive ns_per_op (a tooling problem,
not a regression, so CI can tell "got slower" from "unreadable").
"""

import argparse
import json
import sys

SCHEMA = "hicc.bench.v1"
REFERENCE = "BM_ReferenceSpin"
EXIT_REGRESSION = 1
EXIT_BAD_RECORD = 2


def bad_record(path, why):
    print(f"{path}: {why}\n"
          f"  This is a record problem, not a perf regression. Regenerate with\n"
          f"    ./build/bench/micro --json={path}\n"
          f"  and, if rows were added or renamed on purpose, re-record the\n"
          f"  committed baseline (see docs/PERFORMANCE.md).", file=sys.stderr)
    sys.exit(EXIT_BAD_RECORD)


def load(path):
    """Returns the rows of one bench record, by name."""
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        bad_record(path, f"cannot read a JSON record ({e})")
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema != SCHEMA:
        bad_record(path, f"schema is {schema!r}, expected {SCHEMA!r}")
    rows = record.get("benchmarks")
    if not isinstance(rows, list) or not rows:
        bad_record(path, "'benchmarks' is missing, empty or not a list")
    try:
        return {row["name"]: row for row in rows}
    except (KeyError, TypeError):
        bad_record(path, "a benchmark row has no 'name'")


def pick(rows, name, path):
    if name not in rows:
        bad_record(path, f"benchmark {name!r} missing (have: {sorted(rows)})")
    row = rows[name]
    if not row.get("ns_per_op", 0) > 0:
        bad_record(path, f"{name} has non-positive ns_per_op")
    return row


def regressed(name, base_row, cur_row, base_ref, cur_ref, threshold):
    """Prints one gated row's comparison; returns True if it regressed."""
    base_rel = base_row["ns_per_op"] / base_ref
    cur_rel = cur_row["ns_per_op"] / cur_ref
    ratio = cur_rel / base_rel
    print(f"{name}:")
    print(f"  baseline: {base_row['ns_per_op']:8.2f} ns/op "
          f"(ref {base_ref:.2f} ns -> rel {base_rel:.4f})")
    print(f"  current:  {cur_row['ns_per_op']:8.2f} ns/op "
          f"(ref {cur_ref:.2f} ns -> rel {cur_rel:.4f})")
    print(f"  normalized ratio: {ratio:.3f} (fail above {1 + threshold:.3f})")

    failed = False
    if ratio > 1 + threshold:
        print(f"FAIL: {name} regressed {(ratio - 1) * 100:.1f}% "
              f"(normalized) vs baseline")
        failed = True

    base_allocs = base_row.get("allocs_per_op", 0.0)
    cur_allocs = cur_row.get("allocs_per_op", 0.0)
    print(f"  allocs_per_op: baseline {base_allocs:.4f}, current {cur_allocs:.4f}")
    if cur_allocs > base_allocs + 0.01:
        print(f"FAIL: {name} allocates on the hot path "
              f"({cur_allocs:.4f}/op vs baseline {base_allocs:.4f}/op)")
        failed = True
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--benchmark", action="append",
                    help="row to gate; repeat to gate several "
                         "(default: BM_SimulatorScheduleRun)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression in normalized ns/op")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    missing = sorted(set(base) - set(cur))
    if missing:
        bad_record(args.current, f"baseline rows missing: {missing}")

    # Validate every row before printing any comparison.
    base_ref = pick(base, REFERENCE, args.baseline)["ns_per_op"]
    cur_ref = pick(cur, REFERENCE, args.current)["ns_per_op"]
    gated = [(name, pick(base, name, args.baseline), pick(cur, name, args.current))
             for name in args.benchmark or ["BM_SimulatorScheduleRun"]]

    failed = False
    for name, base_row, cur_row in gated:
        failed |= regressed(name, base_row, cur_row, base_ref, cur_ref,
                            args.threshold)
    if failed:
        sys.exit(EXIT_REGRESSION)
    print("OK")


if __name__ == "__main__":
    main()
