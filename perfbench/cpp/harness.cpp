#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "workload/engine.h"

namespace perfbench {

using hicc::TimePs;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"host_memcontention", "host_iotlb_thrash",
                                                 "cluster_openloop"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "host_memcontention") {
    // The pinned congested run: paper defaults (12 rx threads, 2 MB
    // pages, 12 MB per thread, 128-entry IOTLB, DDIO, 40 closed-loop
    // Swift senders with one 16 KB read outstanding per flow) plus 8
    // STREAM cores saturating the NIC-local memory bus.
    w.host.antagonist_cores = 8;
    w.host.seed = seed;
    return w;
  }
  if (name == "host_iotlb_thrash") {
    // Same host with 4 KB data pages and an idle memory bus: IOTLB
    // misses and page walks, not the memory bus, limit the datapath.
    w.host.hugepages = false;
    w.host.antagonist_cores = 0;
    w.host.seed = seed;
    return w;
  }
  if (name == "cluster_openloop") {
    // 2x2 Clos, 16 hosts: 4 full receivers with heterogeneous memory
    // antagonists, 12 sender machines, open-loop Poisson incast.
    w.is_cluster = true;
    hicc::ClusterConfig& c = w.cluster;
    c.host.seed = seed;
    c.host.warmup = TimePs::from_ms(5);
    c.host.measure = TimePs::from_ms(15);
    c.topology.leaves = 2;
    c.topology.spines = 2;
    c.topology.hosts_per_leaf = 8;
    c.receivers = 4;
    c.antagonist_profile = {0, 4, 8, 12};
    c.workload.pattern = hicc::workload::Pattern::kIncast;
    c.workload.arrival = hicc::workload::Arrival::kPoisson;
    c.workload.rate_per_s = 2e5;
    c.workload.fanout = 8;
    c.workload.size_dist = hicc::workload::SizeDist::kFixed;
    c.workload.fixed_size = hicc::Bytes(4096);
    c.workload.max_active = 4096;
    // The partitioned engine (windows, mailboxes) on one thread: on a
    // shared 4-core host a second worker thread makes wall time depend
    // on how fast the OS wakes it at each of the 10,000 window barriers
    // (2.5x slower and +-17% per run, against +-2% for one thread). The
    // traced run measures the 2-thread engine as sim.par.speedup.
    c.parallelism = 1;
    w.setups = 50;
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::string describe_config(const Workload& w) {
  const hicc::ExperimentConfig& h = w.host_template();
  std::ostringstream s;
  s << "workload=" << w.name << ";seed=" << h.seed << ";senders=" << h.num_senders
    << ";rx_threads=" << h.rx_threads << ";read_size=" << h.read_size.count()
    << ";read_pipeline=" << h.read_pipeline << ";iommu=" << h.iommu_enabled
    << ";hugepages=" << h.hugepages << ";data_region=" << h.data_region.count()
    << ";antagonist_cores=" << h.antagonist_cores << ";iotlb=" << h.iommu.iotlb_entries
    << ";ddio=" << h.ddio.enabled << ";cc=" << static_cast<int>(h.cc)
    << ";warmup_ps=" << h.warmup.ps() << ";measure_ps=" << h.measure.ps();
  if (w.is_cluster) {
    const hicc::ClusterConfig& c = w.cluster;
    s << ";topology=" << c.topology.leaves << "x" << c.topology.spines << "x"
      << c.topology.hosts_per_leaf << ";receivers=" << c.receivers << ";antagonist_profile=";
    for (const int a : c.antagonist_profile) s << a << ",";
    s << ";pattern=" << hicc::workload::to_string(c.workload.pattern)
      << ";arrival=" << hicc::workload::to_string(c.workload.arrival)
      << ";rate=" << c.workload.rate_per_s << ";fanout=" << c.workload.fanout
      << ";size=" << hicc::workload::to_string(c.workload.size_dist) << ":"
      << c.workload.fixed_size.count() << ";max_active=" << c.workload.max_active
      << ";parallelism=" << c.parallelism;
  }
  return s.str();
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.nic_arrivals = nic_arrivals - o.nic_arrivals;
  d.nic_drops = nic_drops - o.nic_drops;
  d.nic_delivered = nic_delivered - o.nic_delivered;
  d.nic_descriptor_fetches = nic_descriptor_fetches - o.nic_descriptor_fetches;
  d.nic_tx_packets = nic_tx_packets - o.nic_tx_packets;
  d.nic_hol_stalls = nic_hol_stalls - o.nic_hol_stalls;
  d.pcie_write_tlps = pcie_write_tlps - o.pcie_write_tlps;
  d.pcie_read_tlps = pcie_read_tlps - o.pcie_read_tlps;
  d.pcie_translation_stalls = pcie_translation_stalls - o.pcie_translation_stalls;
  d.pcie_write_buffer_stalls = pcie_write_buffer_stalls - o.pcie_write_buffer_stalls;
  d.pcie_ddio_write_hits = pcie_ddio_write_hits - o.pcie_ddio_write_hits;
  d.iommu_lookups = iommu_lookups - o.iommu_lookups;
  d.iommu_hits = iommu_hits - o.iommu_hits;
  d.iommu_misses = iommu_misses - o.iommu_misses;
  d.iommu_walk_reads = iommu_walk_reads - o.iommu_walk_reads;
  d.mem_requests = mem_requests - o.mem_requests;
  d.events = events - o.events;
  d.windows = windows - o.windows;
  d.messages = messages - o.messages;
  return d;
}

std::int64_t memory_requests(const hicc::pcie::PcieStats& p, const hicc::iommu::IommuStats& i) {
  return p.write_tlps - p.ddio_write_hits + p.read_tlps + i.walk_memory_reads;
}

std::int64_t Outcome::delivered() const {
  std::int64_t n = 0;
  for (const hicc::Metrics& m : per_receiver) n += m.delivered_packets;
  return n;
}

double Outcome::app_gbps() const {
  double g = 0.0;
  for (const hicc::Metrics& m : per_receiver) g += m.app_throughput_gbps;
  return g;
}

double Outcome::drop_rate() const {
  std::int64_t sent = 0;
  std::int64_t drops = 0;
  for (const hicc::Metrics& m : per_receiver) {
    sent += m.data_packets_sent;
    drops += m.nic_buffer_drops;
  }
  return sent > 0 ? static_cast<double>(drops) / static_cast<double>(sent) : 0.0;
}

namespace {

/// FNV-1a over bytes; integers are fed little-endian.
class Hasher {
 public:
  void add_byte(std::uint64_t b) {
    h_ ^= b & 0xffu;
    h_ *= 1099511628211ull;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(v >> (8 * i));
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const hicc::mem::BandwidthReport& r) {
    add(r.total_gbytes_per_sec);
    add(r.read_gbytes_per_sec);
    add(r.write_gbytes_per_sec);
    for (const double c : r.by_class_gbytes_per_sec) add(c);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

std::uint64_t config_hash(const Workload& w) {
  Hasher h;
  for (const char ch : describe_config(w)) h.add_byte(static_cast<unsigned char>(ch));
  return h.value();
}

std::uint64_t fingerprint(const Outcome& o) {
  Hasher h;
  h.add(static_cast<std::uint64_t>(o.per_receiver.size()));
  for (const hicc::Metrics& m : o.per_receiver) {
    h.add(m.app_throughput_gbps);
    h.add(m.link_utilization);
    h.add(m.drop_rate);
    h.add(m.iotlb_misses_per_packet);
    h.add(m.memory);
    h.add(m.host_delay_p50_us);
    h.add(m.host_delay_p99_us);
    h.add(m.host_delay_max_us);
    h.add(m.victim_reads);
    h.add(m.victim_read_p50_us);
    h.add(m.victim_read_p99_us);
    h.add(m.remote_memory);
    h.add(m.data_packets_sent);
    h.add(m.retransmits);
    h.add(m.rto_fires);
    h.add(m.delivered_packets);
    h.add(m.nic_buffer_drops);
    h.add(m.fabric_drops);
    h.add(m.iotlb_misses);
    h.add(m.iotlb_lookups);
    h.add(m.pcie_translation_stalls);
    h.add(m.pcie_write_buffer_stalls);
    h.add(m.hol_descriptor_stalls);
    h.add(m.avg_cwnd);
    h.add(m.fault_windows);
    h.add(m.fault_drops);
    h.add(m.fault_active_us);
    h.add(m.fault_blind_us);
    h.add(static_cast<std::uint64_t>(m.run_status));
    h.add(m.simulated_seconds);
  }
  const hicc::WorkloadMetrics& wm = o.workload;
  h.add(static_cast<std::uint64_t>(wm.enabled));
  if (wm.enabled) {
    h.add(wm.flows_started);
    h.add(wm.flows_completed);
    h.add(wm.pool_exhausted);
    h.add(wm.collectives_completed);
    h.add(wm.active_flows);
    h.add(wm.fct_us.fingerprint());
    h.add(wm.slowdown.fingerprint());
    h.add(wm.host_delay_us.fingerprint());
  }
  h.add(o.total_fabric_drops);
  h.add(static_cast<std::uint64_t>(o.run_status));
  return h.value();
}

Harness::Harness(const Workload& w, int threads, bool traced) : cfg_(w.host_template()) {
  if (w.is_cluster) {
    hicc::ClusterConfig c = w.cluster;
    if (threads > 0) c.parallelism = threads;
    c.host.trace.enabled = traced;
    cluster_ = std::make_unique<hicc::ClusterExperiment>(std::move(c));
  } else {
    hicc::ExperimentConfig c = w.host;
    c.trace.enabled = traced;
    exp_ = std::make_unique<hicc::Experiment>(c);
  }
}

Harness::~Harness() = default;

void Harness::start() {
  if (cluster_) {
    cluster_->start();
  } else {
    exp_->start();
  }
}

void Harness::run_until(TimePs t) {
  if (cluster_) {
    if (cluster_->engine() != nullptr) {
      cluster_->engine()->run_until(t);
    } else {
      cluster_->simulator().run_until(t);
    }
  } else {
    exp_->advance(t - exp_->simulator().now());
  }
}

void Harness::begin_window() {
  if (cluster_) {
    cluster_->begin_window();
  } else {
    exp_->begin_window();
  }
}

namespace {

Outcome outcome_of(const hicc::ClusterMetrics& cm) {
  Outcome o;
  o.per_receiver = cm.per_receiver;
  o.workload = cm.workload;
  o.total_fabric_drops = cm.total_fabric_drops;
  o.run_status = cm.run_status;
  o.events_executed = cm.events_executed;
  return o;
}

Outcome outcome_of(const hicc::Metrics& m) {
  Outcome o;
  o.per_receiver = {m};
  o.total_fabric_drops = m.fabric_drops;
  o.run_status = m.run_status;
  o.events_executed = m.events_executed;
  return o;
}

}  // namespace

Outcome Harness::snapshot() const {
  return cluster_ ? outcome_of(cluster_->snapshot()) : outcome_of(exp_->snapshot());
}

Outcome Harness::run() { return cluster_ ? outcome_of(cluster_->run()) : outcome_of(exp_->run()); }

int Harness::receivers() const { return cluster_ ? cluster_->num_receivers() : 1; }

int Harness::full_hosts() const {
  if (!cluster_) return 1;
  return cluster_->num_receivers() +
         (cluster_->config().full_sender_hosts ? cluster_->num_sender_hosts() : 0);
}

hicc::host::ReceiverHost& Harness::receiver(int r) {
  return cluster_ ? cluster_->receiver(r) : exp_->receiver();
}

hicc::trace::Tracer* Harness::tracer() { return cluster_ ? cluster_->tracer() : exp_->tracer(); }

std::size_t Harness::pending() const {
  if (cluster_ && cluster_->engine() != nullptr) {
    const hicc::sim::ParallelEngine& e = *cluster_->engine();
    std::size_t n = 0;
    for (int p = 0; p < e.partitions(); ++p) n += e.sim(p).pending();
    return n;
  }
  return cluster_ ? cluster_->simulator().pending() : exp_->simulator().pending();
}

void Harness::partition_executed(std::vector<std::uint64_t>* out) const {
  if (cluster_ && cluster_->engine() != nullptr) {
    const hicc::sim::ParallelEngine& e = *cluster_->engine();
    out->resize(static_cast<std::size_t>(e.partitions()));
    for (int p = 0; p < e.partitions(); ++p) (*out)[static_cast<std::size_t>(p)] = e.sim(p).executed();
    return;
  }
  out->assign(1, cluster_ ? cluster_->simulator().executed() : exp_->simulator().executed());
}

LayerCounters Harness::counters() {
  LayerCounters c;
  for (int r = 0; r < receivers(); ++r) {
    hicc::host::ReceiverHost& h = receiver(r);
    const hicc::nic::NicStats& n = h.nic().stats();
    c.nic_arrivals += n.arrivals;
    c.nic_drops += n.buffer_drops;
    c.nic_delivered += n.delivered;
    c.nic_descriptor_fetches += n.descriptor_fetches;
    c.nic_tx_packets += n.tx_packets;
    c.nic_hol_stalls += n.hol_descriptor_stalls;
    const hicc::pcie::PcieStats& p = h.pcie().stats();
    c.pcie_write_tlps += p.write_tlps;
    c.pcie_read_tlps += p.read_tlps;
    c.pcie_translation_stalls += p.translation_stalls;
    c.pcie_write_buffer_stalls += p.write_buffer_stalls;
    c.pcie_ddio_write_hits += p.ddio_write_hits;
    const hicc::iommu::IommuStats& i = h.iommu().stats();
    c.iommu_lookups += i.lookups;
    c.iommu_hits += i.hits;
    c.iommu_misses += i.misses;
    c.iommu_walk_reads += i.walk_memory_reads;
    c.mem_requests += memory_requests(p, i);
  }
  std::vector<std::uint64_t> executed;
  partition_executed(&executed);
  for (const std::uint64_t e : executed) c.events += e;
  if (cluster_ && cluster_->engine() != nullptr) {
    c.windows = cluster_->engine()->windows();
    c.messages = cluster_->engine()->messages_delivered();
  }
  return c;
}

std::int64_t Harness::active_flows() {
  std::int64_t n = 0;
  if (!cluster_) return n;
  for (int r = 0; r < receivers(); ++r) {
    if (const hicc::workload::WorkloadEngine* e = cluster_->workload_engine(r)) {
      n += e->active_flows();
    }
  }
  return n;
}

std::vector<std::string> Harness::check_ledgers(const Outcome& o,
                                                std::int64_t active_at_window_start) {
  std::vector<std::string> bad;
  auto expect = [&bad](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  expect(o.run_status == hicc::RunStatus::kOk,
         std::string("run status ") + hicc::to_string(o.run_status));
  for (int r = 0; r < receivers(); ++r) {
    hicc::host::ReceiverHost& h = receiver(r);
    const std::string at = " (receiver " + std::to_string(r) + ")";
    const hicc::iommu::IommuStats& i = h.iommu().stats();
    expect(i.lookups == i.hits + i.misses + i.faults, "iotlb lookups != hits + misses + faults" + at);
    expect(i.walks_completed <= i.misses, "iommu walks completed > misses" + at);
    const hicc::nic::NicStats& n = h.nic().stats();
    const std::int64_t in_nic = n.arrivals - n.delivered - n.buffer_drops;
    expect(in_nic >= 0, "nic delivered + dropped > arrivals" + at);
    expect(h.nic().buffer_used().count() <= in_nic * cfg_.wire.data_wire().count(),
           "nic buffer holds more bytes than its packets" + at);
    expect(h.nic().buffer_used() <= h.nic().buffer_limit(), "nic buffer over its limit" + at);
    const hicc::pcie::PcieBus& p = h.pcie();
    expect(p.credits_free().count() >= 0 && p.credits_free() <= p.params().credit_bytes,
           "pcie credits out of range" + at);
    expect(p.stats().ddio_write_hits <= p.stats().write_tlps, "ddio hits > write tlps" + at);
  }
  if (o.workload.enabled) {
    const hicc::WorkloadMetrics& wm = o.workload;
    expect(wm.flows_started - wm.flows_completed == active_flows() - active_at_window_start,
           "workload started - completed != change in active flows");
    expect(wm.fct_us.count() == wm.flows_completed, "fct samples != flows completed");
  }
  return bad;
}

GaugeSink::GaugeSink(std::vector<std::string> probes, int receivers, TimePs from)
    : from_(from) {
  for (const std::string& p : probes) {
    samples_[p];
    alias_[p] = p;
    for (int r = 0; r < receivers; ++r) alias_[hicc::trace::host_probe(r, p)] = p;
  }
}

void GaugeSink::sample(const hicc::trace::ProbeInfo& probe, TimePs t, double value) {
  if (t < from_) return;
  const auto it = alias_.find(probe.name);
  if (it != alias_.end()) samples_[it->second].push_back(value);
}

const std::vector<double>& GaugeSink::samples(const std::string& probe) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(probe);
  return it != samples_.end() ? it->second : kEmpty;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace perfbench
