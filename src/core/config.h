// Experiment configuration: one struct holding every knob of the
// paper's testbed, with defaults matching §3's setup (40 senders,
// Swift with a 100us host target, 100G access link, PCIe 3.0 x16,
// 128-entry IOTLB, 6xDDR4-2400 per NUMA node, 1MB NIC buffer, 12MB
// Rx memory region per thread, 2M hugepages, 4K MTU).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "fault/script.h"
#include "host/rx_thread.h"
#include "iommu/iommu.h"
#include "mem/ddio.h"
#include "mem/dram.h"
#include "mem/stream_antagonist.h"
#include "net/packet.h"
#include "net/topology.h"
#include "nic/nic.h"
#include "pcie/params.h"
#include "trace/trace.h"
#include "transport/cc.h"
#include "transport/swift.h"

namespace hicc {

/// Full description of one experiment run.
struct ExperimentConfig {
  // ------------------------------------------------------- workload
  int num_senders = 40;
  int rx_threads = 12;
  Bytes read_size = Bytes(16 * 1024);
  int read_pipeline = 1;

  // ------------------------------------------- receiver-host knobs
  /// IOMMU ON/OFF (Figures 3, 5, 6).
  bool iommu_enabled = true;
  /// 2M vs 4K data mappings (Figure 4).
  bool hugepages = true;
  /// Rx memory region registered per thread (Figure 5).
  Bytes data_region = Bytes::mib(12);
  /// STREAM antagonist cores (Figure 6).
  int antagonist_cores = 0;
  /// MBA-style cap on antagonist bandwidth, GB/s; <= 0 disables (§4).
  double antagonist_throttle_gbps = 0.0;
  /// §4's "coordinated congestion response": run the antagonist on the
  /// other NUMA node, off the NIC's memory bus.
  bool antagonist_remote_numa = false;
  /// PCIe ATS (§4a): device-side address translation with a NIC TLB.
  bool ats_enabled = false;
  /// Strict IOMMU mode: invalidate each buffer's translation on
  /// delivery (the mode §3.1 avoids because it is "known to cause even
  /// worse IOTLB misses").
  bool strict_iommu = false;
  /// Direct cache access (footnote 2); enabled on the paper's testbed.
  mem::DdioParams ddio;
  /// Latency-sensitive victim flows sharing the NIC buffer (isolation
  /// experiments) and their read size.
  int victim_flows = 0;
  Bytes victim_read_size = Bytes(4096);

  // ------------------------------------------------------ protocol
  transport::CcAlgorithm cc = transport::CcAlgorithm::kSwift;
  transport::SwiftParams swift;

  // ------------------------------------------------- subsystem knobs
  iommu::IommuParams iommu;   // `enabled` is overridden by iommu_enabled
  pcie::PcieParams pcie;
  nic::NicParams nic;
  mem::DramParams dram;
  mem::AntagonistParams antagonist;
  net::FabricParams fabric;
  net::WireFormat wire;
  host::RxThreadParams thread;
  double copy_read_fraction = 0.29;

  // ---------------------------------------------------- run control
  TimePs warmup = TimePs::from_ms(10);
  TimePs measure = TimePs::from_ms(30);
  std::uint64_t seed = 1;
  /// Run watchdog (docs/FAULTS.md): max_events = 0 leaves the event
  /// budget unlimited; the same-timestamp guard catches pathological
  /// self-rescheduling loops without bounding legitimate runs (the
  /// densest healthy instant is a few hundred events).
  sim::WatchdogParams watchdog{.max_events = 0, .max_events_per_timestamp = 1'000'000};

  // ---------------------------------------------------------- faults
  /// Mid-run disturbance script (docs/FAULTS.md). Empty by default: no
  /// FaultEngine is constructed and the run is bitwise identical to a
  /// build without the fault subsystem.
  fault::FaultScript faults;

  // ------------------------------------------------------- telemetry
  /// Time-series tracing (docs/OBSERVABILITY.md). Off by default: with
  /// `trace.enabled == false` no Tracer is constructed and the run is
  /// bitwise identical to a build without the trace layer.
  trace::TraceParams trace;
};

/// Knobs of the crash-isolating sweep supervisor (sweep/supervisor.h,
/// docs/ROBUSTNESS.md): how long one point's worker subprocess may
/// run, how many attempts it gets, and how retry backoff grows. Lives
/// in core so validate() can reject nonsensical values alongside the
/// experiment config; the sweep layer consumes it.
struct SupervisorParams {
  /// Wall-clock budget per worker attempt, seconds; a worker still
  /// running at the deadline is SIGKILLed and the attempt classified
  /// `timed_out`. 0 disables the timeout.
  double point_timeout_s = 0.0;
  /// Total attempts per point (first try + retries), >= 1. A point
  /// whose last attempt also fails is recorded `retries_exhausted`.
  int max_attempts = 3;
  /// Deterministic exponential backoff between attempts: attempt k+1
  /// starts backoff_base_s * 2^(k-1) seconds after attempt k failed,
  /// capped at backoff_cap_s. Base 0 retries immediately.
  double backoff_base_s = 0.2;
  double backoff_cap_s = 5.0;
  /// Concurrent worker processes. <= 0 resolves like sweep --jobs:
  /// $HICC_JOBS if set and positive, else hardware_concurrency().
  int jobs = 0;
};

}  // namespace hicc
