#!/usr/bin/env python3
"""hicc_cli exit-code test: malformed and unused flags are usage errors.

A typo'd flag or a value with trailing garbage must stop the run with
exit code 1 (usage, sweep/worker.h kExitUsage) instead of running the
defaults; a well-formed flag the config rejects stays exit code 2
(kExitConfigInvalid).

Usage: cli_exit_test.py <path-to-hicc_cli-binary>
"""

import subprocess
import sys

QUICK = ["--threads=2", "--senders=2", "--warmup-ms=0.1", "--measure-ms=0.1"]

CASES = [
    # (expected exit code, argv tail)
    (0, QUICK),
    (1, QUICK + ["--rx-threads=4"]),                 # no such flag
    (1, ["--threads=4", "--measure-ms=1x"]),         # trailing garbage
    (1, ["--threads=4", "--measure-ms="]),           # empty number
    (1, QUICK + ["--receivers=2"]),                  # cluster flag, no --topology
    (1, QUICK + ["--json=unused.json"]),             # only --runs/--topology write JSON
    (1, ["--topology=2x2x8", "--wl-rate=1e5x"]),     # the cluster path parses strictly too
    (1, ["stray"]),                                  # not a --flag
    (2, ["--threads=0"]),                            # well-formed, rejected by validate()
]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 1
    cli = sys.argv[1]
    failures = 0
    for want, args in CASES:
        proc = subprocess.run([cli] + args, capture_output=True, text=True, timeout=120)
        status = "ok" if proc.returncode == want else "FAIL"
        print(f"{status}: exit {proc.returncode} (want {want}): hicc_cli {' '.join(args)}")
        if proc.returncode != want:
            failures += 1
            print(proc.stderr.strip())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
