#!/usr/bin/env python3
"""hicc_cli config-flag pin: every config flag reaches the record.

Runs hicc_cli with every config flag set to a non-default value, once
as a single-host sweep (--runs=1) and once as a --topology cluster
with an open-loop workload, plus a run that leaves --measure-ms at the
CLI's own 20 ms default. Each run's hicc.sweep.v1 record must carry
the pinned `config` values (keys the record does not pin may be
added) and exactly the pinned `metrics` object. A flag that stops
reaching its config field, a changed unit or default, or a change in
simulated behaviour shows up as a mismatch here.

Usage: cli_config_test.py <path-to-hicc_cli-binary>
"""

import json
import os
import subprocess
import sys
import tempfile

SINGLE_HOST = [
    "--runs=1", "--threads=3", "--senders=5", "--read-kb=8", "--pipeline=2",
    "--victims=1", "--iommu=1", "--hugepages=0", "--region-mb=4", "--iotlb=64",
    "--nic-buffer-kb=512", "--ats=1", "--strict=1", "--ddio=0",
    "--antagonists=2", "--remote-numa=1", "--mba-gbs=5", "--cc=tcp",
    "--host-target-us=80", "--warmup-ms=0.5", "--measure-ms=1.5", "--seed=7",
    "--max-events=10000000", "--faults=mem.antagonist@0.6ms+0.2ms,cores=4",
    "--trace=unused.csv", "--trace-period-us=10",
]

CLUSTER = [
    "--topology=1x1x4", "--receivers=1", "--workload=incast", "--threads=2",
    "--victims=2", "--cc=host-signal", "--warmup-ms=0.5", "--measure-ms=1.5",
    "--ecmp-seed=5", "--host-gbps=50", "--fabric-gbps=80", "--full-hosts=0",
    "--antagonist-profile=1,3", "--parallel=auto", "--wl-rate=2e5",
    "--wl-arrival=bursty", "--wl-burst-factor=4", "--wl-burst-on=0.3",
    "--wl-burst-period-us=200", "--wl-size=hadoop", "--wl-size-kb=8",
    "--wl-fanout=2", "--wl-max-active=64", "--wl-target-flows=100",
    "--wl-sketch-error=0.02",
]

DEFAULT_MEASURE = ["--runs=1", "--threads=2", "--senders=2", "--warmup-ms=0.1"]

EXPECTED = {
    "single_host": {
        "config": {
            "num_senders": 5,
            "rx_threads": 3,
            "read_size_bytes": 8192,
            "read_pipeline": 2,
            "iommu_enabled": True,
            "hugepages": False,
            "data_region_bytes": 4194304,
            "antagonist_cores": 2,
            "antagonist_throttle_gbps": 5,
            "antagonist_remote_numa": True,
            "ats_enabled": True,
            "strict_iommu": True,
            "ddio_enabled": False,
            "victim_flows": 1,
            "victim_read_size_bytes": 4096,
            "cc": "tcp-like",
            "swift_host_target_us": 80,
            "iotlb_entries": 64,
            "nic_buffer_bytes": 524288,
            "pcie_gigatransfers_per_lane": 8,
            "warmup_us": 500,
            "measure_us": 1500,
            "seed": 13309476754707697221,
            "faults": "mem.antagonist@600us+200us,cores=4",
        },
        "metrics": {
            "app_throughput_gbps": 37.792426666666664,
            "link_utilization": 0.4107712,
            "drop_rate": 0,
            "iotlb_misses_per_packet": 1.998843930635838,
            "memory_total_gbytes_per_sec": 9.766229333333333,
            "memory_nic_dma_gbytes_per_sec": 4.949034666666667,
            "memory_iommu_walk_gbytes_per_sec": 0.08904533333333334,
            "memory_cpu_copy_gbytes_per_sec": 4.7281493333333335,
            "memory_antagonist_gbytes_per_sec": 0,
            "remote_memory_total_gbytes_per_sec": 4.999999999999999,
            "host_delay_p50_us": 42.5,
            "host_delay_p99_us": 46.5,
            "host_delay_max_us": 46.988656,
            "victim_reads": 27,
            "victim_read_p50_us": 54.5,
            "victim_read_p99_us": 55.5,
            "data_packets_sent": 1728,
            "retransmits": 0,
            "rto_fires": 0,
            "delivered_packets": 1730,
            "nic_buffer_drops": 0,
            "fabric_drops": 0,
            "iotlb_misses": 3458,
            "iotlb_lookups": 9528,
            "pcie_translation_stalls": 0,
            "pcie_write_buffer_stalls": 0,
            "hol_descriptor_stalls": 0,
            "avg_cwnd": 16.87896456979741,
            "fault_windows": 1,
            "fault_drops": 0,
            "fault_active_us": 200,
            "fault_blind_us": 0,
            "run_status": "ok",
            "run_status_detail": "",
            "simulated_seconds": 0.0015,
            "events_executed": 128313,
        },
    },
    "cluster": {
        "config": {
            "num_senders": 3,
            "rx_threads": 2,
            "read_size_bytes": 16384,
            "read_pipeline": 1,
            "iommu_enabled": True,
            "hugepages": True,
            "data_region_bytes": 12582912,
            "antagonist_cores": 0,
            "antagonist_throttle_gbps": 0,
            "antagonist_remote_numa": False,
            "ats_enabled": False,
            "strict_iommu": False,
            "ddio_enabled": True,
            "victim_flows": 0,
            "victim_read_size_bytes": 4096,
            "cc": "host-signal",
            "swift_host_target_us": 100,
            "iotlb_entries": 128,
            "nic_buffer_bytes": 1048576,
            "pcie_gigatransfers_per_lane": 8,
            "warmup_us": 500,
            "measure_us": 1500,
            "seed": 1,
            "faults": "",
        },
        "metrics": {
            "app_throughput_gbps": 25.20951466666667,
            "link_utilization": 0.55750912,
            "drop_rate": 0,
            "iotlb_misses_per_packet": 0,
            "memory_total_gbytes_per_sec": 11.983377493333332,
            "memory_nic_dma_gbytes_per_sec": 2.5689386666666665,
            "memory_iommu_walk_gbytes_per_sec": 0,
            "memory_cpu_copy_gbytes_per_sec": 0.914438826666666,
            "memory_antagonist_gbytes_per_sec": 8.5,
            "remote_memory_total_gbytes_per_sec": 0,
            "host_delay_p50_us": 37.5,
            "host_delay_p99_us": 59.5,
            "host_delay_max_us": 62.992301999999995,
            "victim_reads": 0,
            "victim_read_p50_us": 0,
            "victim_read_p99_us": 0,
            "data_packets_sent": 1173,
            "retransmits": 0,
            "rto_fires": 0,
            "delivered_packets": 1154,
            "nic_buffer_drops": 0,
            "fabric_drops": 0,
            "iotlb_misses": 0,
            "iotlb_lookups": 22275,
            "pcie_translation_stalls": 0,
            "pcie_write_buffer_stalls": 0,
            "hol_descriptor_stalls": 0,
            "avg_cwnd": 2.323601745828344,
            "fault_windows": 0,
            "fault_drops": 0,
            "fault_active_us": 0,
            "fault_blind_us": 0,
            "run_status": "ok",
            "run_status_detail": "",
            "simulated_seconds": 0.0015,
            "events_executed": 70995,
        },
    },
    "default_measure": {
        "config": {
            "num_senders": 2,
            "rx_threads": 2,
            "read_size_bytes": 16384,
            "read_pipeline": 1,
            "iommu_enabled": True,
            "hugepages": True,
            "data_region_bytes": 12582912,
            "antagonist_cores": 0,
            "antagonist_throttle_gbps": 0,
            "antagonist_remote_numa": False,
            "ats_enabled": False,
            "strict_iommu": False,
            "ddio_enabled": True,
            "victim_flows": 0,
            "victim_read_size_bytes": 4096,
            "cc": "swift",
            "swift_host_target_us": 100,
            "iotlb_entries": 128,
            "nic_buffer_bytes": 1048576,
            "pcie_gigatransfers_per_lane": 8,
            "warmup_us": 100,
            "measure_us": 20000,
            "seed": 6791897765849424158,
            "faults": "",
        },
        "metrics": {
            "app_throughput_gbps": 25.006899200000003,
            "link_utilization": 0.271910352,
            "drop_rate": 0,
            "iotlb_misses_per_packet": 0.0001965151316651382,
            "memory_total_gbytes_per_sec": 3.4389114879999934,
            "memory_nic_dma_gbytes_per_sec": 2.5327168,
            "memory_iommu_walk_gbytes_per_sec": 6.4000000000000006e-06,
            "memory_cpu_copy_gbytes_per_sec": 0.906188287999993,
            "memory_antagonist_gbytes_per_sec": 0,
            "remote_memory_total_gbytes_per_sec": 0,
            "host_delay_p50_us": 7.0625,
            "host_delay_p99_us": 11.625,
            "host_delay_max_us": 17.313444999999998,
            "victim_reads": 0,
            "victim_read_p50_us": 0,
            "victim_read_p99_us": 0,
            "data_packets_sent": 15272,
            "retransmits": 0,
            "rto_fires": 0,
            "delivered_packets": 15263,
            "nic_buffer_drops": 0,
            "fabric_drops": 0,
            "iotlb_misses": 3,
            "iotlb_lookups": 293905,
            "pcie_translation_stalls": 3,
            "pcie_write_buffer_stalls": 0,
            "hol_descriptor_stalls": 0,
            "avg_cwnd": 33.877488640552386,
            "fault_windows": 0,
            "fault_drops": 0,
            "fault_active_us": 0,
            "fault_blind_us": 0,
            "run_status": "ok",
            "run_status_detail": "",
            "simulated_seconds": 0.02,
            "events_executed": 727680,
        },
    },
}


def run_case(cli, args, workdir):
    path = os.path.join(workdir, "record.json")
    proc = subprocess.run([cli] + args + ["--json=" + path], cwd=workdir,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()}"
    with open(path) as f:
        record = json.load(f)
    points = record["points"]
    if record["schema"] != "hicc.sweep.v1" or len(points) != 1:
        return None, "want one hicc.sweep.v1 point"
    return points[0], None


def compare(name, point, expected):
    problems = []
    config = point["config"]
    for key, want in expected["config"].items():
        if key not in config:
            problems.append(f"config.{key} missing")
        elif config[key] != want or type(config[key]) is not type(want):
            problems.append(f"config.{key} = {config[key]!r}, want {want!r}")
    if point["metrics"] != expected["metrics"]:
        got, want = point["metrics"], expected["metrics"]
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                problems.append(f"metrics.{key} = {got.get(key)!r}, want {want.get(key)!r}")
    return [f"{name}: {p}" for p in problems]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 1
    cli = os.path.abspath(sys.argv[1])
    cases = [("single_host", SINGLE_HOST), ("cluster", CLUSTER),
             ("default_measure", DEFAULT_MEASURE)]
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, args in cases:
            point, error = run_case(cli, args, workdir)
            if error:
                failures.append(f"{name}: {error}")
                continue
            failures += compare(name, point, EXPECTED[name])
    for f in failures:
        print("FAIL:", f)
    print(f"{len(cases)} runs, {len(failures)} mismatch(es)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
