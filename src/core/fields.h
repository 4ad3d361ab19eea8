// The config field table: the one place that names config fields
// outside the process. visit_host() walks every ExperimentConfig field
// and visit_cluster() every field ClusterConfig adds, in record order;
// an entry gives the record key and, if hicc_cli exposes the field, its
// flag. Sweep JSON `config` objects, point-worker specs, columnar
// `config.*` columns and hicc_cli's flags and --help all read it
// (DESIGN.md §12). The first 24 host keys are the original
// hicc.sweep.v1 keys in their original order; later keys use
// validate()'s dotted paths. Fields derived from another
// (iommu.enabled, nic.ats_enabled, nic.strict_invalidation) have no
// entry. visit_metrics() and visit_workload() name the record's
// `metrics` keys and an open-loop cluster run's `workload.*` extras.
//
// Record text: integers in decimal, doubles in shortest round-trip
// form, bools 0/1, times in microseconds, sizes in bytes, rates in
// Gbps, enums by name, the fault script in its spec grammar. Codecs
// round-trip exactly: times come back rounded to the nearest
// picosecond, rates to the nearest bit per second.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/fmt.h"
#include "common/units.h"
#include "core/cluster.h"

namespace hicc::fields {

/// hicc_cli --help sections, in print order, and their headings.
enum Section { kWorkload, kHost, kMemory, kProtocol, kRun, kFaults, kTopology, kOpenLoop };
inline constexpr const char* kSectionHeadings[] = {
    "workload", "receiver host", "memory bus", "protocol", "run control",
    "faults (docs/FAULTS.md)", "topology (docs/TOPOLOGY.md; these flags need --topology)",
    "open-loop workload (docs/WORKLOADS.md; needs --topology)"};

/// A field's hicc_cli flag. A null name: the CLI does not expose it.
struct Flag {
  const char* name = nullptr;  // without the leading "--"
  const char* arg = "N";       // value placeholder in --help
  Section section = kRun;
  const char* help = "";  // '\n' continues the --help line
  /// One flag unit in the field's base unit -- picoseconds for times,
  /// bytes for sizes, bit/s for rates: 1024 for --read-kb, 1e9 for
  /// --warmup-ms. Plain numbers keep 1.
  double unit = 1.0;
};

struct Field {
  const char* key;  // record key
  Flag flag = {};
};

// ------------------------------------------------------------- codecs

/// Fields whose record value is a number.
template <typename T>
inline constexpr bool kNumeric = std::is_arithmetic_v<T> || std::is_same_v<T, Bytes> ||
                                 std::is_same_v<T, TimePs> || std::is_same_v<T, BitRate>;

template <typename T>
  requires kNumeric<T>
std::string to_text(const T& v) {
  std::ostringstream os;
  if constexpr (std::is_same_v<T, double>) {
    put_double(os, v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    os << +v;  // bools as 0/1
  } else if constexpr (std::is_same_v<T, Bytes>) {
    os << v.count();
  } else if constexpr (std::is_same_v<T, TimePs>) {
    put_double(os, v.us());
  } else {
    put_double(os, v.bps() / 1e9);
  }
  return os.str();
}
/// Enums by the name their own to_string gives.
template <typename E>
  requires std::is_enum_v<E>
std::string to_text(E v) {
  return to_string(v);
}
[[nodiscard]] std::string to_text(const fault::FaultScript& v);
/// The Clos shape only, LxSxH with H the total host count; the other
/// TopologyConfig fields have their own keys.
[[nodiscard]] std::string to_text(const net::TopologyConfig& v);
/// Comma-separated (antagonist_profile).
[[nodiscard]] std::string to_text(const std::vector<int>& v);

/// Parses record text into `*out`: "" on success, else what is wrong
/// (and `*out` is unchanged). The whole text must parse.
template <typename T>
  requires kNumeric<T>
std::string from_text(const std::string& s, T* out) {
  // The arithmetic type the text spells.
  using Raw = std::conditional_t<
      std::is_same_v<T, bool>, int,
      std::conditional_t<std::is_same_v<T, Bytes>, std::int64_t,
                         std::conditional_t<std::is_arithmetic_v<T>, T, double>>>;
  Raw raw{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, raw);
  if (ec != std::errc() || ptr != end || (std::is_same_v<T, bool> && raw != 0 && raw != 1)) {
    return "expected a number, got '" + s + "'";
  }
  if constexpr (std::is_same_v<T, Bytes>) {
    *out = Bytes(raw);
  } else if constexpr (std::is_same_v<T, TimePs>) {
    *out = TimePs(std::llround(raw * 1e6));
  } else if constexpr (std::is_same_v<T, BitRate>) {
    *out = BitRate(std::round(raw * 1e9));
  } else {
    *out = static_cast<T>(raw);
  }
  return "";
}
template <typename E>
  requires std::is_enum_v<E>
std::string from_text(const std::string& s, E* out) {
  return from_string(s.c_str(), out) ? "" : "unknown value '" + s + "'";
}
[[nodiscard]] std::string from_text(const std::string& s, fault::FaultScript* out);
[[nodiscard]] std::string from_text(const std::string& s, net::TopologyConfig* out);
[[nodiscard]] std::string from_text(const std::string& s, std::vector<int>* out);

/// Stores the command-line number `x`, given in the flag's unit.
/// Integers truncate like a C cast; times and sizes round to the
/// nearest picosecond or byte.
template <typename T>
  requires kNumeric<T>
void from_number(double x, double unit, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = x != 0.0;
  } else if constexpr (std::is_arithmetic_v<T>) {
    *out = static_cast<T>(x * unit);
  } else if constexpr (std::is_same_v<T, BitRate>) {
    *out = BitRate(x * unit);
  } else {
    *out = T(std::llround(x * unit));
  }
}

// -------------------------------------------------------------- table

/// Calls v(field, value) for every field of `c`, an ExperimentConfig
/// (const or not), in record order.
template <typename Host, typename V>
void visit_host(Host& c, V&& v) {
  v({"num_senders", {"senders", "N", kWorkload, "sender machines (default 40)"}}, c.num_senders);
  v({"rx_threads", {"threads", "N", kWorkload, "receiver cores (default 12)"}}, c.rx_threads);
  v({"read_size_bytes", {"read-kb", "N", kWorkload, "RPC read size in KB (default 16)", 1024}},
    c.read_size);
  v({"read_pipeline", {"pipeline", "N", kWorkload, "outstanding reads per flow (default 1)"}},
    c.read_pipeline);
  v({"iommu_enabled", {"iommu", "0|1", kHost, "memory protection (default 1)"}}, c.iommu_enabled);
  v({"hugepages", {"hugepages", "0|1", kHost, "2M vs 4K data mappings (default 1)"}}, c.hugepages);
  v({"data_region_bytes", {"region-mb", "N", kHost, "Rx region per thread (default 12)", 1 << 20}},
    c.data_region);
  v({"antagonist_cores", {"antagonists", "N", kMemory, "STREAM cores, 0-15 (default 0)"}},
    c.antagonist_cores);
  v({"antagonist_throttle_gbps",
     {"mba-gbs", "X", kMemory, "antagonist bandwidth cap, GB/s (default off)"}},
    c.antagonist_throttle_gbps);
  v({"antagonist_remote_numa",
     {"remote-numa", "0|1", kMemory, "antagonist on the other node (default 0)"}},
    c.antagonist_remote_numa);
  v({"ats_enabled", {"ats", "0|1", kHost, "device-side translation (default 0)"}}, c.ats_enabled);
  v({"strict_iommu", {"strict", "0|1", kHost, "strict IOMMU invalidation (default 0)"}},
    c.strict_iommu);
  v({"ddio_enabled", {"ddio", "0|1", kHost, "direct cache access (default 1)"}}, c.ddio.enabled);
  v({"victim_flows", {"victims", "N", kWorkload, "latency-sensitive victim flows (default 0)"}},
    c.victim_flows);
  v({"victim_read_size_bytes"}, c.victim_read_size);
  v({"cc", {"cc", "swift|tcp|host-signal", kProtocol, "(default swift)"}}, c.cc);
  v({"swift_host_target_us",
     {"host-target-us", "N", kProtocol, "Swift host target (default 100)", 1e6}},
    c.swift.host_target);
  v({"iotlb_entries", {"iotlb", "N", kHost, "IOTLB entries (default 128)"}}, c.iommu.iotlb_entries);
  v({"nic_buffer_bytes", {"nic-buffer-kb", "N", kHost, "NIC input SRAM (default 1024)", 1024}},
    c.nic.input_buffer);
  v({"pcie_gigatransfers_per_lane"}, c.pcie.gigatransfers_per_lane);
  v({"warmup_us", {"warmup-ms", "N", kRun, "warmup window (default 10)", 1e9}}, c.warmup);
  v({"measure_us", {"measure-ms", "N", kRun, "measurement window (default 20)", 1e9}}, c.measure);
  v({"seed", {"seed", "N", kRun, "run seed (default 1)"}}, c.seed);
  v({"faults",
     {"faults", "SPEC", kFaults,
      "';'-separated kind@time[+dur][/period][,k=v...],\n"
      "e.g. 'net.loss@1ms+500us/2ms,prob=0.05'"}},
    c.faults);
  v({"max_events",
     {"max-events", "N", kRun,
      "watchdog budget of executed events, a few dozen per delivered packet (0 = unlimited)"}},
    c.watchdog.max_events);
  v({"max_events_per_timestamp"}, c.watchdog.max_events_per_timestamp);
  v({"trace_enabled"}, c.trace.enabled);
  v({"trace_period_us",
     {"trace-period-us", "N", kRun, "trace sampler tick, only with --trace (default 5)", 1e6}},
    c.trace.sample_period);
  v({"ddio.llc_size"}, c.ddio.llc_size);
  v({"ddio.llc_ways"}, c.ddio.llc_ways);
  v({"ddio.ddio_ways"}, c.ddio.ddio_ways);
  v({"ddio.llc_write_latency"}, c.ddio.llc_write_latency);
  v({"ddio.occupancy_efficiency"}, c.ddio.occupancy_efficiency);
  v({"swift.fabric_target"}, c.swift.fabric_target);
  v({"swift.additive_increase"}, c.swift.additive_increase);
  v({"swift.beta"}, c.swift.beta);
  v({"swift.max_mdf"}, c.swift.max_mdf);
  v({"swift.min_cwnd"}, c.swift.min_cwnd);
  v({"swift.max_cwnd"}, c.swift.max_cwnd);
  v({"swift.loss_mdf"}, c.swift.loss_mdf);
  v({"swift.host_signal_mdf"}, c.swift.host_signal_mdf);
  v({"swift.host_signal_cooldown"}, c.swift.host_signal_cooldown);
  v({"iommu.iotlb_sets"}, c.iommu.iotlb_sets);
  v({"iommu.hit_latency"}, c.iommu.hit_latency);
  v({"iommu.pwc_l4_entries"}, c.iommu.pwc_l4_entries);
  v({"iommu.pwc_l3_entries"}, c.iommu.pwc_l3_entries);
  v({"iommu.pwc_l2_entries"}, c.iommu.pwc_l2_entries);
  v({"iommu.walkers"}, c.iommu.walkers);
  v({"iommu.invalidation_latency"}, c.iommu.invalidation_latency);
  v({"iommu.pt_cache_hit_fraction"}, c.iommu.pt_cache_hit_fraction);
  v({"iommu.pt_cache_latency"}, c.iommu.pt_cache_latency);
  v({"pcie.lanes"}, c.pcie.lanes);
  v({"pcie.encoding"}, c.pcie.encoding);
  v({"pcie.dllp_efficiency"}, c.pcie.dllp_efficiency);
  v({"pcie.max_payload"}, c.pcie.max_payload);
  v({"pcie.tlp_overhead"}, c.pcie.tlp_overhead);
  v({"pcie.credit_bytes"}, c.pcie.credit_bytes);
  v({"pcie.write_buffer_bytes"}, c.pcie.write_buffer_bytes);
  v({"pcie.tlp_proc_time"}, c.pcie.tlp_proc_time);
  v({"pcie.link_latency"}, c.pcie.link_latency);
  v({"pcie.walk_overhead"}, c.pcie.walk_overhead);
  v({"nic.descriptors_per_queue"}, c.nic.descriptors_per_queue);
  v({"nic.descriptor_prefetch"}, c.nic.descriptor_prefetch);
  v({"nic.ring_pages"}, c.nic.ring_pages);
  v({"nic.cq_pages"}, c.nic.cq_pages);
  v({"nic.ack_pages"}, c.nic.ack_pages);
  v({"nic.descriptor_bytes"}, c.nic.descriptor_bytes);
  v({"nic.cq_entry_bytes"}, c.nic.cq_entry_bytes);
  v({"nic.signal_threshold"}, c.nic.signal_threshold);
  v({"nic.dev_tlb_entries"}, c.nic.dev_tlb_entries);
  v({"nic.ats_request_latency"}, c.nic.ats_request_latency);
  v({"dram.channels"}, c.dram.channels);
  v({"dram.mega_transfers_per_sec"}, c.dram.mega_transfers_per_sec);
  v({"dram.bus_bytes"}, c.dram.bus_bytes);
  v({"dram.efficiency"}, c.dram.efficiency);
  v({"dram.idle_latency"}, c.dram.idle_latency);
  v({"dram.max_latency"}, c.dram.max_latency);
  v({"dram.lat_linear_coeff"}, c.dram.lat_linear_coeff);
  v({"dram.lat_queueing_coeff"}, c.dram.lat_queueing_coeff);
  v({"antagonist.per_core_peak"}, c.antagonist.per_core_peak);
  v({"antagonist.per_core_outstanding"}, c.antagonist.per_core_outstanding);
  v({"antagonist.read_fraction"}, c.antagonist.read_fraction);
  v({"fabric.link_rate"}, c.fabric.link_rate);
  v({"fabric.edge_propagation"}, c.fabric.edge_propagation);
  v({"fabric.switch_buffer"}, c.fabric.switch_buffer);
  v({"wire.mtu_payload"}, c.wire.mtu_payload);
  v({"wire.data_header"}, c.wire.data_header);
  v({"wire.ack_wire"}, c.wire.ack_wire);
  v({"wire.read_request_wire"}, c.wire.read_request_wire);
  v({"thread.per_packet_cost"}, c.thread.per_packet_cost);
  v({"thread.cost_jitter"}, c.thread.cost_jitter);
  v({"copy_read_fraction"}, c.copy_read_fraction);
}

/// Calls v(field, value) for every field ClusterConfig adds to its
/// per-host template `c.host`. `c.faults` has no entry of its own: a
/// cluster spec carries it under the host's `faults` key.
template <typename Cluster, typename V>
void visit_cluster(Cluster& c, V&& v) {
  v({"topology",
     {"topology", "LxSxH", kTopology,
      "run a Clos cluster: L leaves x S spines x H total\n"
      "hosts, e.g. 2x2x8; one record point per receiver"}},
    c.topology);
  v({"receivers", {"receivers", "N", kTopology, "receiver hosts; the rest serve (default 1)"}},
    c.receivers);
  v({"ecmp_seed", {"ecmp-seed", "N", kTopology, "stateless ECMP hash seed (default 1)"}},
    c.topology.ecmp_seed);
  v({"host_gbps", {"host-gbps", "X", kTopology, "host-to-leaf link rate (default 100)", 1e9}},
    c.topology.host_link_rate);
  v({"fabric_gbps", {"fabric-gbps", "X", kTopology, "leaf-to-spine link rate (default 100)", 1e9}},
    c.topology.fabric_link_rate);
  v({"full_hosts", {"full-hosts", "0|1", kTopology, "full stacks on sender hosts (default 1)"}},
    c.full_sender_hosts);
  v({"parallelism",
     {"parallel", "N", kTopology,
      "engine threads, 'auto' like --jobs; 0 is the\n"
      "serial path (default 0, docs/PARALLELISM.md)"}},
    c.parallelism);
  v({"mailbox_capacity"}, c.mailbox_capacity);
  v({"antagonist_profile",
     {"antagonist-profile", "A,B,...", kTopology, "per-receiver --antagonists, cycled"}},
    c.antagonist_profile);
  v({"topology.edge_propagation"}, c.topology.edge_propagation);
  v({"topology.fabric_propagation"}, c.topology.fabric_propagation);
  v({"topology.edge_buffer"}, c.topology.edge_buffer);
  v({"topology.fabric_buffer"}, c.topology.fabric_buffer);
  v({"workload.pattern",
     {"workload", "PATTERN", kOpenLoop,
      "open-loop flows, off|incast|uniform|\nallreduce_ring|allreduce_tree (default off)"}},
    c.workload.pattern);
  v({"workload.rate_per_s",
     {"wl-rate", "R", kOpenLoop, "mean arrivals per receiver per second (1e5)"}},
    c.workload.rate_per_s);
  v({"workload.arrival",
     {"wl-arrival", "A", kOpenLoop, "poisson|bursty inter-arrival process (poisson)"}},
    c.workload.arrival);
  v({"workload.burst_factor",
     {"wl-burst-factor", "X", kOpenLoop, "bursty: on-state rate multiplier (8)"}},
    c.workload.burst_factor);
  v({"workload.burst_on_fraction",
     {"wl-burst-on", "F", kOpenLoop, "bursty: fraction of time on (0.2)"}},
    c.workload.burst_on_fraction);
  v({"workload.burst_period",
     {"wl-burst-period-us", "N", kOpenLoop, "bursty: mean on+off cycle length (500)", 1e6}},
    c.workload.burst_period);
  v({"workload.size_dist",
     {"wl-size", "D", kOpenLoop, "fixed|websearch|hadoop flow sizes (fixed)"}},
    c.workload.size_dist);
  v({"workload.fixed_size",
     {"wl-size-kb", "N", kOpenLoop, "flow size for --wl-size=fixed, KB (16)", 1024}},
    c.workload.fixed_size);
  v({"workload.fanout", {"wl-fanout", "N", kOpenLoop, "incast fan-out width (8)"}},
    c.workload.fanout);
  v({"workload.max_active",
     {"wl-max-active", "N", kOpenLoop, "flow-pool slots per receiver (4096)"}},
    c.workload.max_active);
  v({"workload.target_flows",
     {"wl-target-flows", "N", kOpenLoop, "stop after N flows cluster-wide (0 = never)"}},
    c.workload.target_flows);
  v({"workload.sketch_relative_error",
     {"wl-sketch-error", "A", kOpenLoop, "quantile-sketch relative error (0.01)"}},
    c.workload.sketch_relative_error);
}

// ------------------------------------------------------ metrics table

/// Calls v(key, value) for every key of a hicc.sweep.v1 record's
/// `metrics` object, in record order. Values keep their Metrics type:
/// double, std::int64_t, std::uint64_t, RunStatus or std::string.
template <typename V>
void visit_metrics(const Metrics& m, V&& v) {
  const auto& cls = m.memory.by_class_gbytes_per_sec;
  v("app_throughput_gbps", m.app_throughput_gbps);
  v("link_utilization", m.link_utilization);
  v("drop_rate", m.drop_rate);
  v("iotlb_misses_per_packet", m.iotlb_misses_per_packet);
  v("memory_total_gbytes_per_sec", m.memory.total_gbytes_per_sec);
  v("memory_nic_dma_gbytes_per_sec", cls[static_cast<int>(mem::MemClass::kNicDma)]);
  v("memory_iommu_walk_gbytes_per_sec", cls[static_cast<int>(mem::MemClass::kIommuWalk)]);
  v("memory_cpu_copy_gbytes_per_sec", cls[static_cast<int>(mem::MemClass::kCpuCopy)]);
  v("memory_antagonist_gbytes_per_sec", cls[static_cast<int>(mem::MemClass::kAntagonist)]);
  v("remote_memory_total_gbytes_per_sec", m.remote_memory.total_gbytes_per_sec);
  v("host_delay_p50_us", m.host_delay_p50_us);
  v("host_delay_p99_us", m.host_delay_p99_us);
  v("host_delay_max_us", m.host_delay_max_us);
  v("victim_reads", m.victim_reads);
  v("victim_read_p50_us", m.victim_read_p50_us);
  v("victim_read_p99_us", m.victim_read_p99_us);
  v("data_packets_sent", m.data_packets_sent);
  v("retransmits", m.retransmits);
  v("rto_fires", m.rto_fires);
  v("delivered_packets", m.delivered_packets);
  v("nic_buffer_drops", m.nic_buffer_drops);
  v("fabric_drops", m.fabric_drops);
  v("iotlb_misses", m.iotlb_misses);
  v("iotlb_lookups", m.iotlb_lookups);
  v("pcie_translation_stalls", m.pcie_translation_stalls);
  v("pcie_write_buffer_stalls", m.pcie_write_buffer_stalls);
  v("hol_descriptor_stalls", m.hol_descriptor_stalls);
  v("avg_cwnd", m.avg_cwnd);
  v("fault_windows", m.fault_windows);
  v("fault_drops", m.fault_drops);
  v("fault_active_us", m.fault_active_us);
  v("fault_blind_us", m.fault_blind_us);
  v("run_status", m.run_status);
  v("run_status_detail", m.run_status_detail);
  v("simulated_seconds", m.simulated_seconds);
  v("events_executed", m.events_executed);
}

/// Calls v(key, value) for every `workload.*` extra of an open-loop
/// cluster run's records; values are std::int64_t or double.
template <typename V>
void visit_workload(const WorkloadMetrics& w, V&& v) {
  v("workload.flows_started", w.flows_started);
  v("workload.flows_completed", w.flows_completed);
  v("workload.pool_exhausted", w.pool_exhausted);
  v("workload.active_flows", w.active_flows);
  v("workload.fct_p50_us", w.fct_p50_us);
  v("workload.fct_p99_us", w.fct_p99_us);
  v("workload.fct_p999_us", w.fct_p999_us);
  v("workload.slowdown_p50", w.slowdown_p50);
  v("workload.slowdown_p99", w.slowdown_p99);
  v("workload.slowdown_p999", w.slowdown_p999);
  v("workload.host_delay_p99_us", w.host_delay_p99_us);
  v("workload.host_delay_p999_us", w.host_delay_p999_us);
}

}  // namespace hicc::fields
