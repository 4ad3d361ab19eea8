// Ablation A5 (§4): congestion-response comparison under host
// interconnect congestion.
//
//  * swift        -- the paper's protocol (delay-based, RTT response),
//  * tcp-like     -- loss-based AIMD ("the total in-flight bytes can
//                    still exceed NIC buffer capacity"),
//  * host-signal  -- Swift + sub-RTT multiplicative response to
//                    NIC-buffer congestion signals ("rethink the
//                    timescale of congestion response").
//
// Two operating points: IOMMU-contended (16 cores) and memory-bus
// contended (12 cores + 15 antagonists).
#include <vector>

#include "bench_util.h"

using namespace hicc;

int main() {
  bench::header(
      "Ablation A5", "congestion-control comparison under host congestion "
                     "(senders kept backlogged: 8 outstanding reads per flow)",
      "the sub-RTT host signal eliminates drops at equal-or-better throughput; "
      "Swift bounds host delay near its 100us target but pays steady drops in "
      "the blind window; the loss-based baseline's drops grow with sender "
      "backlog (its in-flight bytes are bounded by nothing but loss)");

  Table t({"scenario", "protocol", "app_gbps", "drop_pct", "retransmits",
           "host_delay_p50_us", "host_delay_p99_us"});
  const transport::CcAlgorithm algos[] = {transport::CcAlgorithm::kSwift,
                                          transport::CcAlgorithm::kTcpLike,
                                          transport::CcAlgorithm::kHostSignal};
  std::vector<ExperimentConfig> cfgs;
  for (const bool memory_case : {false, true}) {
    for (const auto algo : algos) {
      ExperimentConfig cfg = bench::base_config();
      cfg.cc = algo;
      cfg.read_pipeline = 8;
      if (memory_case) {
        cfg.rx_threads = 12;
        cfg.iommu_enabled = false;
        cfg.antagonist_cores = 15;
      } else {
        cfg.rx_threads = 14;
        cfg.iommu_enabled = true;
      }
      cfgs.push_back(cfg);
    }
  }

  const auto results = bench::sweep(cfgs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool memory_case = i >= std::size(algos);
    const Metrics& m = results[i].metrics;
    // The host-signal variant is Swift plus the signal response; label
    // it as its controller does (SwiftCc::name()).
    const transport::CcAlgorithm cc = results[i].config.cc;
    const std::string protocol = cc == transport::CcAlgorithm::kHostSignal
                                     ? "swift+host-signal"
                                     : transport::to_string(cc);
    t.add_row({std::string(memory_case ? "membus(15 antagonists)" : "iommu(14 cores)"),
               protocol, m.app_throughput_gbps,
               m.drop_rate * 100.0, m.retransmits, m.host_delay_p50_us,
               m.host_delay_p99_us});
  }

  // The loss-based baseline's exposure scales with how much data the
  // application keeps pending: sweep the per-flow read pipeline.
  Table t2({"read_pipeline", "tcp_drop_pct", "swift_drop_pct"});
  const std::vector<int> pipelines = {1, 4, 8, 16};
  std::vector<ExperimentConfig> backlog_cfgs;
  for (int pipe : pipelines) {
    ExperimentConfig cfg = bench::base_config();
    cfg.rx_threads = 14;
    cfg.read_pipeline = pipe;
    cfg.cc = transport::CcAlgorithm::kTcpLike;
    backlog_cfgs.push_back(cfg);
    cfg.cc = transport::CcAlgorithm::kSwift;
    backlog_cfgs.push_back(cfg);
  }
  const auto backlog = bench::sweep(backlog_cfgs);
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    t2.add_row({std::int64_t{pipelines[i]}, backlog[2 * i].metrics.drop_rate * 100.0,
                backlog[2 * i + 1].metrics.drop_rate * 100.0});
  }
  bench::finish(t, "ablation_subrtt_cc.csv");
  bench::save_json(results, "ablation_subrtt_cc.json");
  std::cout << "Loss-based exposure vs application backlog:\n";
  bench::finish(t2, "ablation_subrtt_cc_backlog.csv");
  bench::save_json(backlog, "ablation_subrtt_cc_backlog.json");
  return 0;
}
