#!/usr/bin/env python3
"""The repository benchmark: host time per simulated ms on three datapath workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the simulator
sources in src/) into $CARGO_TARGET_DIR or .bench_build, then runs
repetitions of the workload, each in its own hicc_perfbench process,
until S seconds have passed. Every repetition's record is printed as
one JSON line; the last line is the summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (a traced run, an untraced run, and the layer drivers per round).
perfbench/README.md defines every metric, workload and check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Per workload: the seed whose simulated output is pinned, and its
# fingerprint. Its keys are the workloads.
with open(os.path.join(BENCH_DIR, "goldens.json")) as _f:
    GOLDENS = json.load(_f)
BUILD_TYPE = "RelWithDebInfo"
REP_TIMEOUT_S = 120
# Keys of a record's "counts" that are host times, not simulated counts.
HOST_TIME_COUNTS = {"slice_ms_p50", "slice_ms_p90"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds hicc_perfbench; returns its path. Configuring
    every time pins the build type, and CMake refuses a build tree made
    from another checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"simulator sources missing: {os.path.join(ROOT, 'src')}")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "hicc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hicc_perfbench")


def provenance():
    try:
        describe = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                                  capture_output=True, text=True, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    return {"git_describe": git or "none", "nproc": os.cpu_count()}


def repetition(binary, workload, seed, *flags):
    """One hicc_perfbench process; returns its record, or None if it failed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"exit {proc.returncode}: {' '.join(cmd)}: {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Counts attempted and failed repetitions: build, run status, ledgers,
    and the simulated-output fingerprint against the golden and against
    the other repetitions of the same seed."""

    def __init__(self, workload, seed):
        golden = GOLDENS[workload]
        self.golden = golden["fingerprint"] if seed == golden["seed"] else None
        self.fingerprint = None
        self.counts = None
        self.gauges = None
        self.attempted = 0
        self.failed = 0

    def check(self, rec, what):
        self.attempted += 1
        problems = []
        if rec is None:
            problems.append("process failed")
        else:
            if rec["build_type"] != BUILD_TYPE or rec["sanitizer"] != "none":
                problems.append(f"timed a {rec['build_type']} build with sanitizer "
                                f"{rec['sanitizer']}")
            if rec["run_status"] != "ok":
                problems.append(f"run status {rec['run_status']}")
            if rec["ledger_failures"]:
                problems.append(f"ledgers: {rec['ledger_failures']}")
            fp = rec["fingerprint"]
            if self.golden is not None and fp != self.golden:
                problems.append(f"fingerprint {fp} != golden {self.golden}")
            if self.fingerprint is None:
                self.fingerprint = fp
            elif fp != self.fingerprint:
                problems.append(f"fingerprint {fp} != {self.fingerprint} of an earlier repetition")
            if not rec["traced"] and rec["threads"] == 1:
                counts = {k: v for k, v in rec["counts"].items() if k not in HOST_TIME_COUNTS}
                if self.counts is None:
                    self.counts = counts
                elif counts != self.counts:
                    problems.append("window counters differ from an earlier repetition")
            if rec["traced"]:
                if self.gauges is None:
                    self.gauges = rec["gauges"]
                elif rec["gauges"] != self.gauges:
                    problems.append("trace gauges differ from an earlier traced repetition")
        if problems:
            self.failed += 1
            log(f"{what} FAILED: {'; '.join(problems)}")
        return not problems


def emit(rec, prov):
    if rec is not None:
        rec.update(prov)
        print(json.dumps({"record": rec}), flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, args, prov):
    chk = Checker(args.workload, args.seed)
    recs = []
    # The first repetition is checked but not timed: it runs while the
    # host is still settling from the build or the previous run.
    warmup = repetition(binary, args.workload, args.seed, "--setups", "1")
    emit(warmup, prov)
    chk.check(warmup, "warm-up repetition")
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or not recs:
        rec = repetition(binary, args.workload, args.seed)
        emit(rec, prov)
        chk.check(rec, f"repetition {chk.attempted + 1}")
        if rec is None:
            break
        recs.append(rec)
    if not recs:
        return chk, {}
    metrics = {
        "setup_s": metric(median([r["setup_s"] for r in recs]), "s"),
        "wall_ms_per_sim_ms": metric(median([r["wall_s"] * 1e3 / r["sim_ms"] for r in recs]), "ms"),
        "cpu_ms_per_sim_ms": metric(median([r["cpu_s"] * 1e3 / r["sim_ms"] for r in recs]), "ms"),
        "peak_rss_mb": metric(median([r["peak_rss_kb"] / 1024.0 for r in recs]), "MB"),
        "ok_frac": metric((chk.attempted - chk.failed) / max(1, chk.attempted), "frac"),
    }
    return chk, metrics


def per_layer(binary, args, prov):
    """Rounds of: untraced repetition, traced repetition (with the layer
    drivers in the first round), and on a partitioned engine a 2-thread
    repetition; host-time figures are medians over rounds."""
    chk = Checker(args.workload, args.seed)
    plain, traced, two_threads = [], [], []
    drivers = None

    def run(what, into, *flags):
        rec = repetition(binary, args.workload, args.seed, "--setups", "1", *flags)
        emit(rec, prov)
        chk.check(rec, what)
        if rec is not None:
            into.append(rec)
        return rec is not None

    start = time.monotonic()
    round_s = 0.0
    # A round starts only if it can end near the deadline.
    while not traced or time.monotonic() - start + round_s < args.seconds:
        round_start = time.monotonic()
        ok = (run("untraced repetition", plain)
              and run("traced repetition", traced, "--traced", *([] if drivers else ["--drivers"]))
              and (plain[0]["counts"]["partitions"] == 1
                   or run("2-thread repetition", two_threads, "--threads", "2")))
        if not ok:
            return chk, {}
        drivers = drivers or traced[0].get("drivers")
        round_s = time.monotonic() - round_start
    return chk, layer_metrics(plain, traced, two_threads, drivers)


def layer_metrics(plain, traced, two_threads, drivers):
    base = plain[0]
    c = base["counts"]
    out = base["outputs"]
    g = traced[0]["gauges"]
    pkts = max(1, out["delivered"])
    sim_ms = base["measure_sim_ms"]
    per = lambda n: n / pkts  # noqa: E731
    wall_ns_per_pkt = median([r["measure_wall_s"] * 1e9 / max(1, r["outputs"]["delivered"])
                              for r in plain])

    d = drivers
    sim_ns = d["sim.schedule_run"]["ns"]
    req = d["mem.request"]["ns"]
    epoch_self = max(0.0, d["mem.epoch"]["ns"] - sim_ns)
    hit = d["iommu.hit"]["ns"]
    w = d["iommu.walk"]
    walk_self = max(0.0, w["ns"] - w["events"] * sim_ns - w["mem_requests"] * req - w["hits"] * hit)
    p = d["pcie.write_tlp"]
    pcie_self = max(0.0, p["ns"] - p["events"] * sim_ns - p["hits"] * hit
                    - p["misses"] * walk_self - p["mem_requests"] * req)
    n = d["nic.stack"]
    nic_self = max(0.0, n["ns"] - n["events"] * sim_ns - n["tlps"] * pcie_self - n["hits"] * hit
                   - n["misses"] * walk_self - n["mem_requests"] * req - n["epochs"] * epoch_self)
    f = d["net.forward"]
    net_self = max(0.0, f["ns"] - f["events"] * sim_ns)
    ack = d["transport.ack"]["ns"]
    churn = d["workload.flow_churn"]["ns"]
    sketch_add = d["workload.sketch_add"]["ns"]

    tlps = c["pcie_write_tlps"] + c["pcie_read_tlps"]
    flows = out.get("flows_started", 0)
    # Open loop: every packet's host delay, and each completed flow's
    # FCT and slowdown, enter a sketch.
    sketch_adds = (out["delivered"] + 2 * out.get("flows_completed", 0)) if flows else 0
    shares = {
        "sim.share": sim_ns * per(c["events"]),
        "net.share": net_self * per(c["nic_arrivals"] + c["nic_tx_packets"]),
        "nic.share": nic_self,
        "pcie.share": pcie_self * per(tlps),
        "iommu.share": hit * per(c["iommu_hits"]) + walk_self * per(c["iommu_misses"]),
        "mem.share": req * per(c["mem_requests"]) + epoch_self * per(c["mem_epochs"]),
        "transport.share": ack,
        "workload.share": churn * per(flows) + sketch_add * per(sketch_adds),
    }
    shares = {k: v / wall_ns_per_pkt for k, v in shares.items()}

    overhead = median([t["wall_s"] for t in traced]) / median([r["wall_s"] for r in plain]) - 1.0
    speedup = (median([r["wall_s"] for r in plain]) / median([r["wall_s"] for r in two_threads])
               if two_threads else 1.0)
    m = {
        "core.wall_ns_per_pkt": metric(wall_ns_per_pkt, "ns"),
        "core.allocs_setup": metric(base["allocs_setup"], "count"),
        "core.allocs_per_kpkt": metric(base["allocs_window"] * 1e3 / pkts, "1/kpkt"),
        "core.unattributed_share": metric(1.0 - sum(shares.values()), "frac"),
        "core.delivered_pkts": metric(out["delivered"], "count"),
        "core.app_gbps": metric(out["app_gbps"], "Gbps"),
        "core.drop_rate": metric(out["drop_rate"], "frac"),
        "sim.events_per_pkt": metric(per(c["events"]), "1/pkt"),
        "sim.ns_per_event": metric(median([r["measure_wall_s"] * 1e9 / max(1, r["counts"]["events"])
                                           for r in plain]), "ns"),
        "sim.slice_ms.p50": metric(median([r["counts"]["slice_ms_p50"] for r in plain]), "ms"),
        "sim.slice_ms.p90": metric(median([r["counts"]["slice_ms_p90"] for r in plain]), "ms"),
        "sim.pending.max": metric(c["pending_max"], "events"),
        "sim.schedule_run_ns": metric(sim_ns, "ns"),
        "sim.par.windows_per_sim_ms": metric(c["windows"] / sim_ms, "1/sim_ms"),
        "sim.par.msgs_per_window": metric(c["messages"] / max(1, c["windows"]), "msgs"),
        "sim.par.mailbox_max": metric(c["mailbox_max"], "msgs"),
        "sim.par.imbalance": metric(c["imbalance"], "ratio"),
        "sim.par.cpu_per_wall": metric(median([r["measure_cpu_s"] / r["measure_wall_s"]
                                               for r in (two_threads or plain)]), "ratio"),
        "sim.par.speedup": metric(speedup, "ratio"),
        "net.fabric_drops": metric(out["fabric_drops"], "count"),
        "net.forward_ns": metric(f["ns"], "ns"),
        "nic.descriptor_fetches_per_pkt": metric(per(c["nic_descriptor_fetches"]), "1/pkt"),
        "nic.hol_stalls_per_pkt": metric(per(c["nic_hol_stalls"]), "1/pkt"),
        "nic.drops_per_kpkt": metric(c["nic_drops"] * 1e3 / pkts, "1/kpkt"),
        "nic.buffer_kb.p99": metric(g["nic.buffer_bytes.p99"] / 1024.0, "KB"),
        "nic.stack_ns_per_pkt": metric(n["ns"], "ns"),
        "pcie.tlps_per_pkt": metric(per(tlps), "1/pkt"),
        "pcie.translation_stalls_per_pkt": metric(per(c["pcie_translation_stalls"]), "1/pkt"),
        "pcie.write_buffer_stalls_per_pkt": metric(per(c["pcie_write_buffer_stalls"]), "1/pkt"),
        "pcie.ddio_hit_frac": metric(c["pcie_ddio_write_hits"] / max(1, c["pcie_write_tlps"]),
                                     "frac"),
        "pcie.rc_queue.p99": metric(g["pcie.rc_queue_depth.p99"], "tlps"),
        "pcie.ns_per_tlp": metric(p["ns"], "ns"),
        "iommu.lookups_per_pkt": metric(per(c["iommu_lookups"]), "1/pkt"),
        "iommu.miss_frac": metric(c["iommu_misses"] / max(1, c["iommu_lookups"]), "frac"),
        "iommu.walk_reads_per_miss": metric(c["iommu_walk_reads"] / max(1, c["iommu_misses"]),
                                            "1/miss"),
        "iommu.pending_walks.p99": metric(g["iommu.pending_walks.p99"], "walks"),
        "iommu.hit_ns": metric(hit, "ns"),
        "iommu.walk_ns": metric(w["ns"], "ns"),
        "mem.gbs": metric(out["mem_gbs"], "GB/s"),
        "mem.utilization.p50": metric(g["mem.utilization.p50"], "frac"),
        "mem.latency_ns.p99": metric(g["mem.latency_ns.p99"], "ns"),
        "mem.request_ns": metric(req, "ns"),
        "mem.epoch_ns": metric(d["mem.epoch"]["ns"], "ns"),
        "host.delay_p50_us": metric(out["host_delay_p50_us"], "us"),
        "host.delay_p99_us": metric(out["host_delay_p99_us"], "us"),
        "host.rx_queue_pkts.p99": metric(g["host.rx_queue_pkts.p99"], "pkts"),
        "transport.retx_per_kpkt": metric(out["retransmits"] * 1e3 / pkts, "1/kpkt"),
        "transport.rto_fires": metric(out["rto_fires"], "count"),
        "transport.cwnd_avg": metric(out["cwnd_avg"], "pkts"),
        "transport.ack_ns": metric(ack, "ns"),
        "workload.flows_per_sim_ms": metric(flows / sim_ms, "1/sim_ms"),
        "workload.pool_exhausted_frac": metric(
            out.get("pool_exhausted", 0) / max(1, flows + out.get("pool_exhausted", 0)), "frac"),
        "workload.active_flows.max": metric(g["workload.active_flows.max"], "flows"),
        "workload.fct_p50_us": metric(out.get("fct_p50_us", 0.0), "us"),
        "workload.fct_p99_us": metric(out.get("fct_p99_us", 0.0), "us"),
        "workload.flow_churn_ns": metric(churn, "ns"),
        "workload.sketch_add_ns": metric(sketch_add, "ns"),
        "trace.overhead_frac": metric(overhead, "frac"),
    }
    for k, v in shares.items():
        m[k] = metric(v, "frac")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GOLDENS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    prov = provenance()
    chk, metrics = (per_layer if args.trace else end_to_end)(binary, args, prov)
    if not metrics:
        log("no repetition succeeded")
        return 1
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
