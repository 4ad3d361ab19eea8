#include "sweep/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/fmt.h"
#include "core/validate.h"
#include "sweep/journal.h"
#include "sweep/worker.h"

// hicc-lint: allow-file(det-wallclock) -- the supervisor is harness
// code: timeouts, backoff, and progress wall_seconds run on the host
// clock and never feed simulation state.

namespace hicc::sweep {
namespace {

using Clock = std::chrono::steady_clock;

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGPIPE: return "SIGPIPE";
    default: return "signal";
  }
}

std::string fmt_double(double v) {
  std::ostringstream os;
  put_double(os, v);
  return os.str();
}

/// The sweep's identity for journal/resume pairing: a checksum over
/// every point spec (order-sensitive). decorate lines are excluded on
/// purpose -- injection aids must not unpair a journal from the sweep
/// it belongs to.
std::uint64_t sweep_fingerprint(const std::vector<std::string>& specs) {
  std::string all;
  for (const auto& s : specs) {
    all += s;
    all += '\x1f';
  }
  return fnv1a64(all);
}

/// Splits a worker's hicc.sweep.v1 doc into its point-element byte
/// ranges (quote-aware brace matching; the writer never emits braces
/// outside strings except structurally). Empty result = malformed.
std::vector<std::string> extract_point_elements(const std::string& doc) {
  std::vector<std::string> out;
  constexpr char kAnchor[] = "\"points\": [";
  std::size_t i = doc.find(kAnchor);
  if (i == std::string::npos) return out;
  i += sizeof(kAnchor) - 1;
  while (i < doc.size()) {
    while (i < doc.size() && (doc[i] == ' ' || doc[i] == '\n' || doc[i] == ',')) ++i;
    if (i >= doc.size()) return {};
    if (doc[i] == ']') return out;
    if (doc[i] != '{') return {};
    const std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < doc.size(); ++i) {
      const char c = doc[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          out.push_back(doc.substr(start, i - start + 1));
          ++i;
          break;
        }
      }
    }
    if (depth != 0) return {};
  }
  return {};
}

/// First non-"ok" `run_status` label across the record's elements
/// ("ok" if none): a worker that finished degraded (watchdog abort,
/// mailbox overflow) reports it in-band and must not be retried.
std::string record_status_label(const std::string& element) {
  constexpr char kKey[] = "\"run_status\": \"";
  std::size_t pos = 0;
  while ((pos = element.find(kKey, pos)) != std::string::npos) {
    pos += sizeof(kKey) - 1;
    const std::size_t close = element.find('"', pos);
    if (close == std::string::npos) break;
    const std::string label = element.substr(pos, close - pos);
    if (label != "ok") return label;
    pos = close;
  }
  return "ok";
}

/// What one worker launch produced.
struct AttemptResult {
  bool ok = false;         // a usable record was written
  bool permanent = false;  // deterministic failure; retrying is pointless
  RunStatus status = RunStatus::kCrashed;
  std::string detail;
  std::string payload;       // ",\n    "-joined elements when ok
  RunStatus record_status = RunStatus::kOk;  // in-band status when ok
};

AttemptResult classify(int wait_status, bool killed_by_timeout, double timeout_s,
                       const std::string& stdout_text) {
  AttemptResult r;
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    if (killed_by_timeout) {
      r.status = RunStatus::kTimedOut;
      r.detail = "exceeded the " + fmt_double(timeout_s) + " s point timeout; worker killed";
    } else if (sig == SIGKILL) {
      r.status = RunStatus::kOomKilled;
      r.detail = "worker killed by SIGKILL outside the supervisor (OOM killer or external kill)";
    } else {
      r.status = RunStatus::kCrashed;
      r.detail = "worker crashed: signal " + std::to_string(sig) + " (" + signal_name(sig) + ")";
    }
    return r;
  }

  const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  if (code == kExitOk) {
    const std::vector<std::string> elements = extract_point_elements(stdout_text);
    if (elements.empty()) {
      r.status = RunStatus::kCrashed;
      r.detail = "worker exited 0 without a hicc.sweep.v1 record";
      return r;
    }
    r.ok = true;
    for (std::size_t i = 0; i < elements.size(); ++i) {
      if (i > 0) r.payload += ",\n    ";
      r.payload += elements[i];
    }
    const std::string label = record_status_label(r.payload);
    RunStatus parsed = RunStatus::kOk;
    if (run_status_from_string(label, &parsed)) r.record_status = parsed;
    r.status = r.record_status;
    return r;
  }

  r.status = RunStatus::kCrashed;
  if (code == kExitConfigInvalid) {
    r.permanent = true;
    r.detail = "worker rejected the point config (exit 2, validation failure)";
  } else if (code == kExitFaultParse) {
    r.permanent = true;
    r.detail = "worker could not parse the point spec (exit 3)";
  } else if (code == kExitExecFailed) {
    r.permanent = true;
    r.detail = "could not exec the worker binary (exit 127)";
  } else {
    r.detail = "worker exited with code " + std::to_string(code);
  }
  return r;
}

/// Synthesizes the journal/merge element for a point no attempt could
/// produce a record for: the config as the worker would have run it,
/// zeroed metrics, the taxonomy status + detail, and the attempt count
/// under extra -- all deterministic, so resumed and uninterrupted
/// sweeps stay bitwise identical even for failed points.
std::string synthesize_failure_payload(const std::string& spec, std::size_t index,
                                       RunStatus status, const std::string& detail,
                                       int attempts) {
  SweepResult r;
  r.index = index;
  SpecParse parsed = parse_point_spec(spec);
  if (parsed.ok()) {
    const ClusterConfig& cfg = parsed.spec.config;
    r.config = cfg.host;
    // Mirror ClusterExperiment's effective per-host template.
    if (parsed.spec.is_cluster) {
      r.config.num_senders = std::max(1, cfg.topology.num_hosts() - cfg.receivers);
    }
  }
  r.metrics.run_status = status;
  r.metrics.run_status_detail = detail;
  r.extra["supervisor.attempts"] = attempts;
  std::ostringstream os;
  write_point(os, r);
  return os.str();
}

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
};

/// fork/exec one worker: spec on its stdin, record pipe returned
/// nonblocking. Only async-signal-safe calls between fork and exec.
Child spawn_worker(const std::vector<std::string>& argv_strings, const std::string& spec) {
  Child child;
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) return child;
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return child;
  }

  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const auto& s : argv_strings) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) ::close(fd);
    return child;
  }
  if (pid == 0) {
    // Worker side: wire the pipes to stdin/stdout (dup2 clears
    // O_CLOEXEC on the duplicates; everything else closes at exec),
    // restore default signal dispositions the parent may have
    // customized, and become the worker binary.
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGPIPE, SIG_DFL);
    ::execv(argv[0], argv.data());
    ::_exit(kExitExecFailed);  // exec failed; the classifier explains exit 127
  }

  ::close(in_pipe[0]);
  ::close(out_pipe[1]);

  // Feed the spec. The worker drains stdin before doing anything else,
  // so this cannot deadlock; a child that already died yields EPIPE
  // (SIGPIPE is ignored around the run), which the reaper explains.
  const char* p = spec.data();
  std::size_t left = spec.size();
  while (left > 0) {
    const ssize_t n = ::write(in_pipe[1], p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::close(in_pipe[1]);

  ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
  child.pid = pid;
  child.out_fd = out_pipe[0];
  return child;
}

/// Ignores SIGPIPE for the supervisor's lifetime on the call stack so
/// writing a spec to a dead worker surfaces as EPIPE, not death.
class SigpipeGuard {
 public:
  SigpipeGuard() : old_(std::signal(SIGPIPE, SIG_IGN)) {}
  ~SigpipeGuard() { std::signal(SIGPIPE, old_); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  void (*old_)(int);
};

/// One concurrent-worker slot of the supervision loop.
struct Slot {
  enum class State { kIdle, kRunning, kBackoff } state = State::kIdle;
  std::size_t point = 0;
  int attempt = 0;
  pid_t pid = -1;
  int fd = -1;
  std::string stdout_text;
  bool killed_by_timeout = false;
  Clock::time_point started{};
  Clock::time_point deadline{};   // meaningful when timeout_s > 0
  Clock::time_point resume_at{};  // meaningful in kBackoff
  RunStatus last_status = RunStatus::kCrashed;  // last failed attempt
  std::string last_detail;
};

/// Drains everything currently readable from a nonblocking fd into
/// `into`; returns false once the pipe reached EOF (fd closed).
bool drain_fd(int fd, std::string* into) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      into->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return true;  // EAGAIN: nothing more right now
  }
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions opts)
    : opts_(std::move(opts)), jobs_(SweepRunner::resolve_jobs(opts_.params.jobs)) {}

SupervisorOutcome Supervisor::run(const std::vector<ExperimentConfig>& points) const {
  std::vector<std::string> specs;
  specs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) specs.push_back(point_spec(points[i], i));
  return run_specs(specs);
}

SupervisorOutcome Supervisor::run_specs(const std::vector<std::string>& specs) const {
  if (const auto violations = validate(opts_.params); !violations.empty()) {
    throw std::invalid_argument("invalid supervisor configuration:\n" + describe(violations));
  }
  if (opts_.worker_argv.empty()) {
    throw std::invalid_argument("supervisor needs a worker argv (e.g. hicc_cli --point-worker)");
  }

  const std::size_t total = specs.size();
  SupervisorOutcome out;
  out.points.resize(total);
  for (std::size_t i = 0; i < total; ++i) out.points[i].index = i;

  const std::uint64_t fingerprint = sweep_fingerprint(specs);

  const auto account = [&out](const PointOutcome& p) {
    ++out.completed;
    switch (p.status) {
      case RunStatus::kOk: break;
      case RunStatus::kEventBudget:
      case RunStatus::kStalled:
      case RunStatus::kMailboxOverflow: ++out.degraded; break;
      case RunStatus::kCrashed:
      case RunStatus::kTimedOut:
      case RunStatus::kOomKilled:
      case RunStatus::kRetriesExhausted: ++out.failures; break;
    }
  };

  if (opts_.resume) {
    if (opts_.journal_path.empty()) {
      throw std::invalid_argument("resume needs a journal path");
    }
    JournalContents journal = read_journal(opts_.journal_path);
    if (!journal.error.empty()) {
      throw std::invalid_argument("cannot resume from " + opts_.journal_path + ": " +
                                  journal.error);
    }
    if (journal.fingerprint != fingerprint) {
      throw std::invalid_argument(
          "journal " + opts_.journal_path +
          " was written by a different sweep (fingerprint mismatch); refusing to merge");
    }
    for (JournalEntry& e : journal.entries) {
      if (e.index >= total) continue;  // journal of a longer sweep prefix-matched
      PointOutcome& p = out.points[e.index];
      p.completed = true;
      p.from_journal = true;
      p.attempts = e.attempts;
      p.detail = std::move(e.detail);
      p.payload = std::move(e.payload);
      RunStatus status = RunStatus::kCrashed;
      if (run_status_from_string(e.status, &status)) p.status = status;
    }
    for (const PointOutcome& p : out.points) {
      if (!p.completed) continue;
      ++out.resumed;
      account(p);
      if (opts_.progress) {
        opts_.progress(SweepProgress{out.completed, total, p.index, 0.0});
      }
    }
  }

  JournalWriter journal;
  if (!opts_.journal_path.empty()) {
    if (!journal.open(opts_.journal_path, fingerprint, opts_.resume)) {
      throw std::runtime_error("cannot open sweep journal " + opts_.journal_path);
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < total; ++i) {
    if (!out.points[i].completed) pending.push_back(i);
  }
  std::size_t remaining = pending.size();
  if (remaining == 0) return out;

  SigpipeGuard sigpipe_guard;
  const SupervisorParams& params = opts_.params;
  const double timeout_s = params.point_timeout_s;

  const auto backoff_after = [&params](int failed_attempt) {
    double s = params.backoff_base_s;
    for (int i = 1; i < failed_attempt; ++i) s *= 2.0;
    return std::min(s, params.backoff_cap_s);
  };

  const auto spec_for = [this, &specs](std::size_t point, int attempt) {
    std::string spec = specs[point];
    if (spec.empty() || spec.back() != '\n') spec += '\n';
    if (opts_.decorate) {
      std::string extra = opts_.decorate(point);
      if (!extra.empty()) {
        spec += extra;
        if (spec.back() != '\n') spec += '\n';
      }
    }
    spec += "attempt=" + std::to_string(attempt) + "\n";
    return spec;
  };

  std::vector<Slot> slots(std::min<std::size_t>(static_cast<std::size_t>(jobs_), remaining));

  const auto launch = [&](Slot& slot, std::size_t point, int attempt) {
    const Child child = spawn_worker(opts_.worker_argv, spec_for(point, attempt));
    if (child.pid < 0) {
      // fork/pipe failure: treat like a crashed attempt via a dead
      // slot; record it immediately as permanent (the host is out of
      // resources -- retrying from here would likely fail the same way).
      PointOutcome& p = out.points[point];
      p.completed = true;
      p.attempts = attempt;
      p.status = RunStatus::kCrashed;
      p.detail = "could not fork a worker process";
      p.payload = synthesize_failure_payload(specs[point], point, p.status, p.detail,
                                             p.attempts);
      if (journal.is_open()) {
        journal.append(JournalEntry{point, to_string(p.status), p.attempts, p.detail,
                                    p.payload});
      }
      account(p);
      if (opts_.progress) opts_.progress(SweepProgress{out.completed, total, point, 0.0});
      --remaining;
      slot.state = Slot::State::kIdle;
      return;
    }
    slot.state = Slot::State::kRunning;
    slot.point = point;
    slot.attempt = attempt;
    slot.pid = child.pid;
    slot.fd = child.out_fd;
    slot.stdout_text.clear();
    slot.killed_by_timeout = false;
    slot.started = Clock::now();
    if (timeout_s > 0.0) {
      slot.deadline = slot.started + std::chrono::microseconds(
                                         static_cast<std::int64_t>(timeout_s * 1e6));
    }
  };

  const auto finalize = [&](Slot& slot, const AttemptResult& attempt_result) {
    PointOutcome& p = out.points[slot.point];
    if (attempt_result.ok) {
      p.completed = true;
      p.attempts = slot.attempt;
      p.status = attempt_result.status;
      p.detail.clear();
      p.payload = attempt_result.payload;
    } else {
      if (journal.is_open()) {
        journal.note(slot.point, slot.attempt, to_string(attempt_result.status),
                     attempt_result.detail);
      }
      if (opts_.log != nullptr) {
        *opts_.log << "point " << slot.point << " attempt " << slot.attempt << ": "
                   << to_string(attempt_result.status) << " -- " << attempt_result.detail
                   << '\n';
      }
      const bool retry = !attempt_result.permanent && slot.attempt < params.max_attempts;
      if (retry) {
        slot.state = Slot::State::kBackoff;
        slot.resume_at = Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                             backoff_after(slot.attempt) * 1e6));
        slot.last_status = attempt_result.status;
        slot.last_detail = attempt_result.detail;
        return;
      }
      p.completed = true;
      p.attempts = slot.attempt;
      if (slot.attempt > 1) {
        p.status = RunStatus::kRetriesExhausted;
        p.detail = "gave up after " + std::to_string(slot.attempt) +
                   " attempts; last failure: " + to_string(attempt_result.status) + ": " +
                   attempt_result.detail;
      } else {
        p.status = attempt_result.status;
        p.detail = attempt_result.detail;
      }
      p.payload =
          synthesize_failure_payload(specs[slot.point], slot.point, p.status, p.detail,
                                     p.attempts);
    }
    if (journal.is_open()) {
      journal.append(
          JournalEntry{slot.point, to_string(p.status), p.attempts, p.detail, p.payload});
    }
    account(p);
    if (opts_.progress) {
      const double wall =
          std::chrono::duration<double>(Clock::now() - slot.started).count();
      opts_.progress(SweepProgress{out.completed, total, slot.point, wall});
    }
    --remaining;
    slot.state = Slot::State::kIdle;
    slot.pid = -1;
  };

  std::size_t next_pending = 0;
  const auto stopped = [this] {
    return opts_.stop_flag != nullptr && *opts_.stop_flag != 0;
  };

  while (remaining > 0 && !stopped()) {
    // Fill idle slots and wake due backoffs.
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kIdle && next_pending < pending.size()) {
        launch(slot, pending[next_pending++], 1);
      } else if (slot.state == Slot::State::kBackoff && Clock::now() >= slot.resume_at) {
        launch(slot, slot.point, slot.attempt + 1);
      }
    }
    if (remaining == 0) break;

    // Enforce per-point deadlines.
    if (timeout_s > 0.0) {
      const auto now = Clock::now();
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::kRunning && !slot.killed_by_timeout &&
            now >= slot.deadline) {
          ::kill(slot.pid, SIGKILL);
          slot.killed_by_timeout = true;
        }
      }
    }

    // Wait for worker output / exits, bounded so deadlines, backoffs,
    // and the stop flag are honored promptly.
    std::vector<pollfd> fds;
    auto wake = Clock::now() + std::chrono::milliseconds(100);
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kRunning) {
        if (slot.fd >= 0) fds.push_back(pollfd{slot.fd, POLLIN, 0});
        if (timeout_s > 0.0 && !slot.killed_by_timeout) wake = std::min(wake, slot.deadline);
      } else if (slot.state == Slot::State::kBackoff) {
        wake = std::min(wake, slot.resume_at);
      }
    }
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        wake - Clock::now());
    const int timeout_ms = std::max(0, static_cast<int>(wait.count()) + 1);
    if (!fds.empty()) {
      ::poll(fds.data(), fds.size(), timeout_ms);
    } else {
      ::poll(nullptr, 0, std::min(timeout_ms, 20));
    }

    // Drain output, reap finished workers, classify their attempts.
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kRunning) continue;
      if (slot.fd >= 0 && !drain_fd(slot.fd, &slot.stdout_text)) {
        ::close(slot.fd);
        slot.fd = -1;
      }
      int wait_status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &wait_status, WNOHANG);
      if (reaped != slot.pid) continue;
      if (slot.fd >= 0) {
        // The child is gone; whatever remains of its record is already
        // in the pipe. Drain to EOF, then classify.
        while (drain_fd(slot.fd, &slot.stdout_text)) {
          pollfd pfd{slot.fd, POLLIN, 0};
          ::poll(&pfd, 1, 10);
        }
        ::close(slot.fd);
        slot.fd = -1;
      }
      finalize(slot, classify(wait_status, slot.killed_by_timeout, timeout_s,
                              slot.stdout_text));
    }
  }

  if (remaining > 0) {
    // Interrupted: kill in-flight workers, keep everything journaled.
    out.interrupted = true;
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kRunning) continue;
      ::kill(slot.pid, SIGKILL);
      int wait_status = 0;
      while (::waitpid(slot.pid, &wait_status, 0) < 0 && errno == EINTR) {}
      if (slot.fd >= 0) {
        ::close(slot.fd);
        slot.fd = -1;
      }
      slot.state = Slot::State::kIdle;
    }
  }
  return out;
}

void write_merged_json(const SupervisorOutcome& outcome, std::ostream& os) {
  os << "{\n  \"schema\": \"hicc.sweep.v1\",\n  \"points\": [";
  bool first = true;
  for (const PointOutcome& p : outcome.points) {
    if (!p.completed) continue;
    os << (first ? "\n" : ",\n") << "    " << p.payload;
    first = false;
  }
  os << "\n  ]\n}\n";
}

bool save_merged_json(const SupervisorOutcome& outcome, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_merged_json(outcome, out);
  return static_cast<bool>(out);
}

}  // namespace hicc::sweep
