#include "drivers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sketch.h"
#include "transport/cc.h"
#include "workload/flow_pool.h"

namespace perfbench {

using hicc::Bytes;
using hicc::TimePs;
using hicc::iommu::Iova;
using Clock = std::chrono::steady_clock;

DriverSetup driver_setup(const Workload& w) {
  DriverSetup s;
  if (w.is_cluster) {
    const hicc::ClusterConfig& c = w.cluster;
    s.host = c.host;
    if (!c.antagonist_profile.empty()) s.host.antagonist_cores = c.antagonist_profile[0];
    s.num_senders = c.topology.num_hosts() - c.receivers;
    s.open_loop = c.workload.enabled();
    s.open_loop_slots = c.workload.max_active;
    s.topology = c.topology;
    s.receivers = c.receivers;
    s.workload = c.workload;
  } else {
    s.host = w.host;
    s.num_senders = w.host.num_senders;
    s.topology = hicc::degenerate_cluster(w.host).topology;
    s.receivers = 1;
  }
  s.host.iommu.enabled = s.host.iommu_enabled;
  s.host.trace.enabled = false;
  return s;
}

DriverHost::DriverHost(const DriverSetup& s)
    : rng(s.host.seed),
      host(hicc::HostFactory(sim).make_full_host(s.host, s.num_senders, rng, nullptr,
                                                 s.open_loop, s.open_loop_slots)) {}

double idle_host_events_per_sim_ms(const DriverSetup& s) {
  DriverHost d(s);
  d.sim.run_until(TimePs::from_ms(1));
  const std::uint64_t before = d.sim.executed();
  d.sim.run_until(TimePs::from_ms(2));
  return static_cast<double>(d.sim.executed() - before);
}

namespace {

/// Times `batch` (which returns the operations it did) repeatedly for
/// about kDriverSeconds, at least five times; returns the median ns/op and
/// adds the operations done to `*ops`.
template <typename Batch>
double time_batches(std::int64_t* ops, Batch&& batch) {
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < 5 ||
         std::chrono::duration<double>(Clock::now() - start).count() < kDriverSeconds) {
    const auto t0 = Clock::now();
    const std::int64_t n = batch();
    const auto t1 = Clock::now();
    if (n <= 0) break;
    *ops += n;
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(n));
  }
  return quantile(ns, 0.5);
}

/// The datapath work counters a driver nets out.
struct Work {
  double events = 0, hits = 0, misses = 0, walk_reads = 0, mem_requests = 0, tlps = 0;

  static Work of(const hicc::sim::Simulator& sim, hicc::host::ReceiverHost& h) {
    Work w;
    w.events = static_cast<double>(sim.executed());
    const hicc::iommu::IommuStats& i = h.iommu().stats();
    w.hits = static_cast<double>(i.hits);
    w.misses = static_cast<double>(i.misses);
    w.walk_reads = static_cast<double>(i.walk_memory_reads);
    const hicc::pcie::PcieStats& p = h.pcie().stats();
    w.tlps = static_cast<double>(p.write_tlps + p.read_tlps);
    w.mem_requests = static_cast<double>(memory_requests(p, i));
    return w;
  }

  [[nodiscard]] std::map<std::string, double> per_op(const Work& before, std::int64_t ops,
                                                     bool with_tlps) const {
    const auto n = static_cast<double>(ops);
    std::map<std::string, double> m = {{"events", (events - before.events) / n},
                                       {"hits", (hits - before.hits) / n},
                                       {"misses", (misses - before.misses) / n},
                                       {"walk_reads", (walk_reads - before.walk_reads) / n},
                                       {"mem_requests", (mem_requests - before.mem_requests) / n}};
    if (with_tlps) m["tlps"] = (tlps - before.tlps) / n;
    return m;
  }
};

/// Mapped pages of every registered region, interleaved region by
/// region (as concurrent queues touch them), at most `limit`.
std::vector<Iova> interleaved_pages(const hicc::iommu::Iommu& iommu, std::size_t limit) {
  const hicc::iommu::IoPageTable& t = iommu.page_table();
  std::vector<Iova> out;
  for (std::int64_t n = 0; out.size() < limit; ++n) {
    bool any = false;
    for (std::size_t r = 0; r < t.region_count() && out.size() < limit; ++r) {
      const hicc::iommu::Region& reg = t.region(hicc::iommu::RegionId{static_cast<std::int32_t>(r)});
      if (n < reg.num_pages()) {
        out.push_back(reg.page_iova(n));
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

/// Translates `iova` to completion, walking if needed.
void translate(DriverHost& d, Iova iova) {
  hicc::iommu::Iommu& mmu = d.host.receiver->iommu();
  if (mmu.try_translate(iova).has_value()) return;
  bool done = false;
  bool* flag = &done;
  mmu.translate_slow(iova, [flag] { *flag = true; });
  while (!done && d.sim.run_one()) {
  }
}

/// Log-uniform values in [lo, hi], deterministic.
std::vector<double> log_uniform(double lo, double hi, std::size_t n, std::uint64_t seed) {
  hicc::Rng rng(seed);
  std::vector<double> v(n);
  lo = std::max(lo, 1e-3);
  hi = std::max(hi, lo * 1.01);
  for (double& x : v) x = lo * std::exp(rng.uniform() * std::log(hi / lo));
  return v;
}

DriverCost sim_driver(const DriverInputs& in) {
  // Hold model at the observed depth: every event schedules one
  // successor after an exponential delay whose mean is the observed
  // queue wait. (The engine's cost per event depends on how events
  // spread over its calendar buckets, so the delays must match the
  // workload's depth and rate, not only its depth.)
  struct Hold {
    hicc::sim::Simulator sim;
    std::vector<TimePs> delays;
    std::size_t next = 0;
    void fire() {
      const TimePs d = delays[next++ % delays.size()];
      sim.after(d, [this] { fire(); });
    }
  };
  auto h = std::make_unique<Hold>();
  hicc::Rng rng(7);
  for (int i = 0; i < 4096; ++i) {
    h->delays.push_back(TimePs::from_ns(-in.event_wait_ns * std::log(1.0 - rng.uniform())));
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(1, in.sim_depth); ++i) h->fire();
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr int kBatch = 100000;
    for (int i = 0; i < kBatch; ++i) h->sim.run_one();
    return std::int64_t{kBatch};
  });
  return c;
}

DriverCost mem_request_driver(const DriverSetup& s) {
  DriverHost d(s);
  // Let the epoch solver settle on the antagonist's operating point.
  d.sim.run_until(TimePs::from_us(200));
  hicc::mem::MemorySystem& mem = *d.host.mem;
  std::int64_t ops = 0;
  std::int64_t sink = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr int kBatch = 20000;
    for (int i = 0; i < kBatch; ++i) {
      sink += mem.request(hicc::mem::MemClass::kNicDma, Bytes(256), false).ps();
    }
    return std::int64_t{kBatch};
  });
  c.per_op["latency_ns"] = static_cast<double>(sink) / 1000.0 / static_cast<double>(ops);
  return c;
}

DriverCost mem_epoch_driver(const DriverSetup& s) {
  // The memory nodes' epoch solves (and the copy-demand refresh) are
  // the only events of an idle host; idle_host_events_per_sim_ms
  // counts them.
  DriverHost d(s);
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    const std::uint64_t before = d.sim.executed();
    d.sim.run_until(d.sim.now() + TimePs::from_us(500));
    return static_cast<std::int64_t>(d.sim.executed() - before);
  });
  c.per_op["events"] = 1.0;
  return c;
}

DriverCost iommu_hit_driver(const DriverSetup& s) {
  DriverHost d(s);
  hicc::iommu::Iommu& mmu = d.host.receiver->iommu();
  const auto hot = interleaved_pages(
      mmu, static_cast<std::size_t>(std::max(1, s.host.iommu.iotlb_entries / 2)));
  for (const Iova p : hot) translate(d, p);
  const Work before = Work::of(d.sim, *d.host.receiver);
  std::int64_t ops = 0;
  std::int64_t sink = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr int kRounds = 200;
    for (int r = 0; r < kRounds; ++r) {
      for (const Iova p : hot) {
        if (const auto lat = mmu.try_translate(p + 64)) sink += lat->ps();
      }
    }
    return static_cast<std::int64_t>(kRounds * hot.size());
  });
  c.per_op = Work::of(d.sim, *d.host.receiver).per_op(before, ops, false);
  c.per_op["latency_ns"] = static_cast<double>(sink) / 1000.0 / static_cast<double>(ops);
  return c;
}

DriverCost iommu_walk_driver(const DriverSetup& s) {
  // Cycling through more pages than the IOTLB holds makes (nearly)
  // every lookup miss and walk; the cost is per miss, inclusive.
  DriverHost d(s);
  hicc::iommu::Iommu& mmu = d.host.receiver->iommu();
  const auto pages = interleaved_pages(
      mmu, static_cast<std::size_t>(std::max(256, 4 * s.host.iommu.iotlb_entries)));
  std::size_t next = 0;
  for (const Iova p : pages) translate(d, p);
  const Work before = Work::of(d.sim, *d.host.receiver);
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    const std::int64_t misses0 = mmu.stats().misses;
    for (int i = 0; i < 2000; ++i) translate(d, pages[next++ % pages.size()]);
    return mmu.stats().misses - misses0;
  });
  const Work after = Work::of(d.sim, *d.host.receiver);
  c.per_op = after.per_op(before, std::max<std::int64_t>(1, ops), false);
  return c;
}

DriverCost pcie_driver(const DriverSetup& s) {
  // Posted payload writes to IOTLB-resident pages, issued as fast as
  // credits allow.
  DriverHost d(s);
  hicc::pcie::PcieBus& bus = d.host.receiver->pcie();
  const auto hot = interleaved_pages(
      d.host.receiver->iommu(),
      static_cast<std::size_t>(std::max(1, s.host.iommu.iotlb_entries / 2)));
  for (const Iova p : hot) translate(d, p);
  const Bytes payload = s.host.pcie.max_payload;
  std::int64_t retired = 0;
  std::int64_t* counter = &retired;
  std::size_t next = 0;
  const Work before = Work::of(d.sim, *d.host.receiver);
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr std::int64_t kBatch = 5000;
    const std::int64_t goal = retired + kBatch;
    std::int64_t issued = retired;
    while (retired < goal) {
      while (issued < goal && bus.can_send_write(payload)) {
        bus.send_write_tlp(hot[next++ % hot.size()], payload, [counter] { ++*counter; });
        ++issued;
      }
      if (!d.sim.run_one()) break;
    }
    return kBatch;
  });
  c.per_op = Work::of(d.sim, *d.host.receiver).per_op(before, ops, true);
  return c;
}

DriverCost nic_stack_driver(const DriverSetup& s, const DriverInputs& in) {
  // The whole receive stack per delivered packet: data packets enter
  // ReceiverHost::on_arrival at the workload's delivered rate, and
  // everything the host sends back lands in a sink.
  const double epochs_per_sim_ms = idle_host_events_per_sim_ms(s);
  DriverHost d(s);
  hicc::host::ReceiverHost& rx = *d.host.receiver;
  rx.set_transmit([](hicc::net::Packet) { return true; });
  rx.start();
  struct Source {
    hicc::sim::Simulator* sim;
    hicc::host::ReceiverHost* rx;
    hicc::net::WireFormat wire;
    TimePs gap;
    std::int64_t seq = 0;
    void fire() {
      hicc::net::Packet p;
      p.kind = hicc::net::PacketKind::kData;
      p.flow = static_cast<std::int32_t>(seq % rx->num_flows());
      p.sender = rx->sender_of_flow(p.flow);
      p.seq = seq++;
      p.payload = wire.mtu_payload;
      p.wire = wire.data_wire();
      p.sent_at = sim->now();
      rx->on_arrival(p);
      sim->after(gap, [this] { fire(); });
    }
  };
  auto src = std::make_unique<Source>(Source{
      &d.sim, &rx, s.host.wire, TimePs::from_sec(1.0 / std::max(1e3, in.pkt_rate_per_s))});
  src->fire();
  d.sim.run_until(TimePs::from_ms(2));
  const Work before = Work::of(d.sim, rx);
  const TimePs t0 = d.sim.now();
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    const std::int64_t delivered0 = rx.nic().stats().delivered;
    d.sim.run_until(d.sim.now() + TimePs::from_us(500));
    return rx.nic().stats().delivered - delivered0;
  });
  c.per_op = Work::of(d.sim, rx).per_op(before, std::max<std::int64_t>(1, ops), true);
  c.per_op["epochs"] = epochs_per_sim_ms * (d.sim.now() - t0).sec() * 1e3 /
                       static_cast<double>(std::max<std::int64_t>(1, ops));
  return c;
}

DriverCost ack_driver(const DriverSetup& s, const DriverInputs& in) {
  hicc::sim::Simulator sim;
  std::unique_ptr<hicc::transport::CongestionControl> cc =
      hicc::make_congestion_control(sim, s.host, nullptr);
  const auto delays = log_uniform(in.host_delay_lo_us, in.host_delay_hi_us, 4096, 11);
  std::size_t next = 0;
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr int kBatch = 20000;
    for (int i = 0; i < kBatch; ++i) {
      const TimePs host = TimePs::from_us(delays[next++ % delays.size()]);
      cc->on_ack(hicc::transport::AckInfo{TimePs::from_us(8) + host, host});
      // Let simulated time pass, as ACKs of one flow arrive an RTT apart.
      if ((i & 255) == 255) sim.run_until(sim.now() + TimePs::from_us(20));
    }
    return std::int64_t{kBatch};
  });
  return c;
}

DriverCost fabric_driver(const DriverSetup& s) {
  // Data packets from every sender host to the receivers, round robin,
  // at 90% of the receivers' aggregate access-link rate (no drops).
  hicc::sim::Simulator sim;
  std::int64_t delivered = 0;
  std::int64_t* counter = &delivered;
  hicc::net::ClosFabric fabric(sim, s.topology,
                               [counter](int, hicc::net::Packet) { ++*counter; });
  struct Source {
    hicc::sim::Simulator* sim;
    hicc::net::ClosFabric* fabric;
    int receivers;
    int hosts;
    hicc::net::WireFormat wire;
    TimePs gap;
    std::int64_t seq = 0;
    void fire() {
      hicc::net::Packet p;
      p.kind = hicc::net::PacketKind::kData;
      const int senders = hosts - receivers;
      const int src = receivers + static_cast<int>(seq % senders);
      p.dst = static_cast<int>((seq / senders) % receivers);
      p.flow = static_cast<std::int32_t>(seq % 1024);
      p.sender = src;
      p.seq = seq++;
      p.payload = wire.mtu_payload;
      p.wire = wire.data_wire();
      fabric->send_from_host(src, p);
      sim->after(gap, [this] { fire(); });
    }
  };
  const double pkt_time = static_cast<double>(s.host.wire.data_wire().count()) * 8.0 /
                          s.topology.host_link_rate.bps();
  auto src = std::make_unique<Source>(
      Source{&sim, &fabric, s.receivers, s.topology.num_hosts(), s.host.wire,
             TimePs::from_sec(pkt_time / (0.9 * s.receivers))});
  src->fire();
  sim.run_until(TimePs::from_us(200));
  const double events0 = static_cast<double>(sim.executed());
  const std::int64_t delivered_before = delivered;
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    const std::int64_t d0 = delivered;
    sim.run_until(sim.now() + TimePs::from_us(200));
    return delivered - d0;
  });
  c.per_op["events"] = (static_cast<double>(sim.executed()) - events0) /
                       static_cast<double>(std::max<std::int64_t>(1, delivered - delivered_before));
  return c;
}

DriverCost flow_churn_driver(const DriverSetup& s) {
  const int classes = std::max(1, s.num_senders);
  hicc::workload::FlowPool pool(s.workload.max_active, classes);
  int cls = 0;
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr int kBatch = 100000;
    for (int i = 0; i < kBatch; ++i) {
      pool.release(pool.acquire(cls));
      cls = cls + 1 == classes ? 0 : cls + 1;
    }
    return std::int64_t{kBatch};
  });
  return c;
}

DriverCost sketch_driver(const DriverSetup& s, const DriverInputs& in) {
  hicc::QuantileSketch sketch(s.workload.sketch_relative_error);
  const auto values = log_uniform(in.host_delay_lo_us, in.host_delay_hi_us * 50.0, 4096, 13);
  std::size_t next = 0;
  std::int64_t ops = 0;
  DriverCost c;
  c.ns = time_batches(&ops, [&] {
    constexpr int kBatch = 100000;
    for (int i = 0; i < kBatch; ++i) sketch.add(values[next++ % values.size()]);
    return std::int64_t{kBatch};
  });
  return c;
}

}  // namespace

std::map<std::string, DriverCost> run_drivers(const Workload& w, const DriverInputs& in) {
  const DriverSetup s = driver_setup(w);
  std::map<std::string, DriverCost> out;
  out["sim.schedule_run"] = sim_driver(in);
  out["mem.request"] = mem_request_driver(s);
  out["mem.epoch"] = mem_epoch_driver(s);
  out["iommu.hit"] = iommu_hit_driver(s);
  out["iommu.walk"] = iommu_walk_driver(s);
  out["pcie.write_tlp"] = pcie_driver(s);
  out["nic.stack"] = nic_stack_driver(s, in);
  out["transport.ack"] = ack_driver(s, in);
  out["net.forward"] = fabric_driver(s);
  out["workload.flow_churn"] = flow_churn_driver(s);
  out["workload.sketch_add"] = sketch_driver(s, in);
  return out;
}

}  // namespace perfbench
