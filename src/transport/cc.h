// Congestion-control interface.
//
// The experiments run Swift (the paper's protocol), a TCP-like
// loss-based baseline (§4's "TCP-like protocols" discussion), and a
// sub-RTT host-signal variant exploring §4's "rethinking congestion
// response" direction. All three plug into the same sender flow.
#pragma once

#include <cstring>
#include <memory>

#include "common/units.h"

namespace hicc::transport {

/// Signals delivered to the congestion controller per acknowledgment.
struct AckInfo {
  /// Measured round-trip time of the acknowledged packet.
  TimePs rtt{};
  /// Receiver-host delay (NIC arrival -> stack processing) echoed in
  /// the ACK -- Swift's "host" delay component.
  TimePs host_delay{};
};

/// Abstract congestion controller for one flow. Window is in packets
/// and may be fractional (< 1 means paced slower than one packet per
/// RTT, as in Swift).
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Called for every acknowledgment received.
  virtual void on_ack(const AckInfo& info) = 0;

  /// Called when a loss is inferred (fast retransmit or RTO).
  virtual void on_loss() = 0;

  /// Called when an out-of-band host congestion signal arrives
  /// (sub-RTT response experiments); default ignores it.
  virtual void on_host_signal() {}

  /// Current congestion window in packets (possibly fractional).
  [[nodiscard]] virtual double cwnd() const = 0;

  /// Human-readable protocol name for reports.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Which protocol an experiment runs.
enum class CcAlgorithm {
  kSwift,       // delay-based, fabric + host targets (the paper's setup)
  kTcpLike,     // loss-based AIMD baseline
  kHostSignal,  // Swift + sub-RTT multiplicative response to NIC signals
};

/// The algorithm's name in records and on the command line.
inline const char* to_string(CcAlgorithm cc) {
  switch (cc) {
    case CcAlgorithm::kSwift: return "swift";
    case CcAlgorithm::kTcpLike: return "tcp-like";
    case CcAlgorithm::kHostSignal: return "host-signal";
  }
  return "unknown";
}

/// Inverse of to_string; "tcp" is accepted as a short alias for
/// "tcp-like" (hicc_cli --cc=tcp).
inline bool from_string(const char* s, CcAlgorithm* out) {
  if (std::strcmp(s, "tcp") == 0) s = to_string(CcAlgorithm::kTcpLike);
  for (const auto cc : {CcAlgorithm::kSwift, CcAlgorithm::kTcpLike, CcAlgorithm::kHostSignal}) {
    if (std::strcmp(s, to_string(cc)) == 0) {
      *out = cc;
      return true;
    }
  }
  return false;
}

}  // namespace hicc::transport
