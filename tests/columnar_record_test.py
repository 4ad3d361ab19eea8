#!/usr/bin/env python3
"""hicc_cli columnar record test (hicc.sweepc.v1, docs/WORKLOADS.md).

Runs a short open-loop incast on a 2x2x16 Clos at --parallel=0, 1 and
2 and checks that:
  - the columnar file is byte-identical for --parallel=1 and 2, and the
    serial run's (--parallel=0) differs only in metrics.events_executed:
    the serial path is a different event order (docs/PARALLELISM.md);
  - it is well formed: the declared field list matches the columns and
    every column has one value per point, workload counters included;
  - every numeric key of each point's JSON `metrics` object has a
    `metrics.<key>` column holding the same value.

Usage: columnar_record_test.py <path-to-hicc_cli-binary>
"""

import json
import os
import subprocess
import sys
import tempfile

RUN = ["--topology=2x2x16", "--receivers=2", "--threads=8", "--warmup-ms=1",
       "--measure-ms=5", "--workload=incast", "--wl-rate=200000", "--wl-fanout=8",
       "--wl-size-kb=4", "--wl-max-active=1024"]

REQUIRED = {"extra.workload.flows_started", "extra.workload.flows_completed",
            "extra.workload.fct_p99_us", "extra.workload.slowdown_p99",
            "extra.workload.pool_exhausted", "metrics.run_status",
            "metrics.app_throughput_gbps"}


def check_record(columnar, record):
    """Returns the problems found in one run's columnar and JSON records."""
    problems = []
    if columnar["schema"] != "hicc.sweepc.v1":
        problems.append(f"schema {columnar['schema']}")
    n = columnar["points"]
    columns = columnar["columns"]
    if n != 2:
        problems.append(f"{n} points, want 2")
    if set(columnar["fields"]) != set(columns):
        problems.append("declared field list differs from the columns")
    problems += [f"{name}: {len(col)} values for {n} points"
                 for name, col in columns.items() if len(col) != n]
    problems += [f"missing column {name}" for name in sorted(REQUIRED - set(columns))]
    for row, point in enumerate(record["points"]):
        for key, value in point["metrics"].items():
            if isinstance(value, str):
                continue  # run_status (its code is a column), run_status_detail
            col = columns.get("metrics." + key)
            if col is None or col[row] != value:
                problems.append(f"point {row}: metrics.{key} is "
                                f"{None if col is None else col[row]}, record has {value}")
    return problems


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 1
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for p in (0, 1, 2):
            columnar = os.path.join(tmp, f"p{p}.columnar.json")
            record = os.path.join(tmp, f"p{p}.json")
            proc = subprocess.run([cli] + RUN + [f"--parallel={p}",
                                                 f"--columnar-out={columnar}",
                                                 f"--json={record}"],
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                print(f"FAIL: --parallel={p} exited {proc.returncode}\n{proc.stderr}")
                return 1
            with open(columnar, "rb") as f:
                outputs[p] = f.read()
            with open(record) as f:
                problems = check_record(json.loads(outputs[p]), json.load(f))
            for problem in problems:
                print(f"FAIL: --parallel={p}: {problem}")
            if problems:
                return 1
        if outputs[2] != outputs[1]:
            print("FAIL: columnar record differs between --parallel=1 and 2")
            return 1
        serial, engine = (json.loads(outputs[p])["columns"] for p in (0, 1))
        differ = sorted(k for k in serial.keys() | engine.keys()
                        if serial.get(k) != engine.get(k) and k != "metrics.events_executed")
        if differ:
            print(f"FAIL: --parallel=0 and 1 differ in {differ}")
            return 1
    print("ok: columnar record well formed, every numeric metric has its column, "
          "independent of --parallel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
