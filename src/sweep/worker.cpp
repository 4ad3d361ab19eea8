#include "sweep/worker.h"

#include <csignal>
#include <cstdlib>
#include <ctime>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/experiment.h"
#include "core/fields.h"
#include "core/validate.h"
#include "fault/script.h"
#include "sweep/sweep.h"

namespace hicc::sweep {
namespace {

/// Runs the injected failure, if any. Returns -1 to continue with the
/// real point, or an exit code ("exit:N"). The process-killing modes
/// do not return; this is the sanctioned seam where a worker may die
/// on purpose (tests + CI drive it; docs/ROBUSTNESS.md).
int apply_inject(const std::string& inject, int attempt) {
  if (inject.empty()) return -1;
  const auto arg = [&inject]() -> int {
    const auto colon = inject.find(':');
    return colon == std::string::npos
               ? 0
               : static_cast<int>(std::strtol(inject.c_str() + colon + 1, nullptr, 10));
  };
  const std::string mode = inject.substr(0, inject.find(':'));
  if (mode == "flaky-segv" || mode == "flaky-kill") {
    if (attempt >= arg()) return -1;  // recovered on this attempt
    std::raise(mode == "flaky-segv" ? SIGSEGV : SIGKILL);
  } else if (mode == "segv") {
    std::raise(SIGSEGV);
  } else if (mode == "abort") {
    std::abort();
  } else if (mode == "kill") {
    std::raise(SIGKILL);
  } else if (mode == "hang") {
    // Sleep far past any sane --point-timeout; the supervisor SIGKILLs.
    while (true) {
      timespec ts{3600, 0};
      ::nanosleep(&ts, nullptr);
    }
  } else if (mode == "exit") {
    return arg();
  }
  return -1;  // unreachable for the killing modes
}

/// Writes the spec header, the index line and one line per table field
/// of `host` and, for a cluster point, of `cluster`.
std::string write_spec(const ExperimentConfig& host, const ClusterConfig* cluster,
                       std::size_t index) {
  std::ostringstream os;
  os << "hicc.point.v1\nindex=" << index << '\n';
  const auto line = [&os](const fields::Field& f, const auto& value) {
    os << f.key << '=' << fields::to_text(value) << '\n';
  };
  fields::visit_host(host, line);
  if (cluster != nullptr) fields::visit_cluster(*cluster, line);
  return os.str();
}

}  // namespace

std::string point_spec(const ExperimentConfig& cfg, std::size_t index) {
  return write_spec(cfg, nullptr, index);
}

std::string cluster_point_spec(const ClusterConfig& cfg, std::size_t index) {
  // The spec has one `faults=` line; for a cluster it is the cluster
  // script, which parse_point_spec moves back to cluster scope.
  ExperimentConfig host = cfg.host;
  host.faults = cfg.faults;
  return write_spec(host, &cfg, index);
}

SpecParse parse_point_spec(const std::string& text) {
  SpecParse out;
  PointSpec& spec = out.spec;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "hicc.point.v1") {
    out.errors.push_back("line 1: expected the 'hicc.point.v1' header");
    return out;
  }

  int lineno = 1;
  const auto fail = [&out, &lineno](const std::string& what) {
    out.errors.push_back("line " + std::to_string(lineno) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail("expected key=value, got '" + line + "'");
      continue;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    if (key == "index") {
      if (const std::string e = fields::from_text(value, &spec.index); !e.empty()) fail(e);
    } else if (key == "attempt") {
      if (const std::string e = fields::from_text(value, &spec.attempt); !e.empty()) fail(e);
      if (spec.attempt < 1) fail("attempt must be >= 1");
    } else if (key == "inject") {
      static constexpr const char* kModes[] = {"segv", "abort",      "kill",
                                               "hang", "exit",       "flaky-segv",
                                               "flaky-kill"};
      const std::string mode = value.substr(0, value.find(':'));
      bool known = value.empty();
      for (const char* m : kModes) known = known || mode == m;
      if (!known) fail("unknown inject mode '" + value + "'");
      spec.inject = value;
    } else {
      bool found = false;
      const auto parse = [&](const fields::Field& f, auto& field) {
        if (found || key != f.key) return;
        found = true;
        if (const std::string e = fields::from_text(value, &field); !e.empty()) {
          fail(key + ": " + e);
        }
      };
      fields::visit_host(spec.config.host, parse);
      if (!found) {
        fields::visit_cluster(spec.config, parse);
        spec.is_cluster = spec.is_cluster || found;
      }
      if (!found) fail("unknown key '" + key + "'");
    }
  }
  // A cluster spec's one `faults=` line is the cluster script, and
  // cluster workers write metrics-only records: per-host trace
  // harvesting stays an in-process --topology feature.
  if (spec.is_cluster) {
    spec.config.faults = std::move(spec.config.host.faults);
    spec.config.host.faults = fault::FaultScript{};
    spec.config.host.trace.enabled = false;
  }
  return out;
}

int run_point_worker(std::istream& in, std::ostream& out, std::ostream& err) {
  std::ostringstream buf;
  buf << in.rdbuf();
  SpecParse parsed = parse_point_spec(buf.str());
  if (!parsed.ok()) {
    err << "bad hicc.point.v1 spec:\n";
    for (const auto& e : parsed.errors) err << "  " << e << '\n';
    return kExitFaultParse;
  }
  PointSpec& spec = parsed.spec;

  if (const int injected = apply_inject(spec.inject, spec.attempt); injected >= 0) {
    return injected;
  }

  try {
    std::vector<SweepResult> points;
    if (spec.is_cluster) {
      ClusterConfig& cfg = spec.config;
      if (const auto violations = validate(cfg); !violations.empty()) {
        err << "invalid point configuration:\n" << describe(violations) << '\n';
        return kExitConfigInvalid;
      }
      ClusterExperiment exp(std::move(cfg));
      const ClusterMetrics cm = exp.run();
      points = cluster_points(exp, cm, spec.index);
    } else {
      ExperimentConfig& cfg = spec.config.host;
      if (const auto violations = validate(cfg); !violations.empty()) {
        err << "invalid point configuration:\n" << describe(violations) << '\n';
        return kExitConfigInvalid;
      }
      points.resize(1);
      SweepResult& p = points.front();
      p.index = spec.index;
      p.config = cfg;
      Experiment exp(p.config);
      p.metrics = exp.run();
      // Same harvest the in-process sweep path applies to traced
      // replicas, so isolated and in-process records carry the same
      // extra.trace.* keys.
      if (cfg.trace.enabled) harvest_trace(exp, p);
    }
    // wall_seconds stays 0.0 on every element: a worker record is a
    // pure function of its spec, which is what lets a resumed sweep be
    // bitwise identical to an uninterrupted one.
    write_json(points, out);
    out.flush();
    return kExitOk;
  } catch (const std::exception& e) {
    err << "point worker failed: " << e.what() << '\n';
    return kExitUsage;
  }
}

}  // namespace hicc::sweep
