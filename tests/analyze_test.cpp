// Static analyzer self-test. Seeded fixture trees pin each rule to an
// exact golden diagnostic: tests/analyze_fixtures/ holds one tree per
// whole-program rule, and tests/lint_fixtures/ holds every per-file
// rule family with a positive and a suppressed twin. Also covers the
// baseline and suppression workflow and the strict-mode clean check on
// the real src/ tree.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.h"
#include "analyze/report.h"

namespace hicc::analyze {
namespace {

Options fixture_opts(const std::string& name) {
  Options opts;
  opts.root = std::string(HICC_ANALYZE_FIXTURES) + "/" + name;
  opts.paths = {"src"};
  opts.baseline_path = "/dev/null";  // fixtures never carry a baseline
  return opts;
}

const std::string kLintFixtures = std::string(HICC_REPO_ROOT) + "/tests/lint_fixtures";

Options lint_opts(const std::string& path) {
  Options opts;
  opts.root = kLintFixtures;
  opts.paths = {path};
  opts.baseline_path = "/dev/null";
  return opts;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AnalyzeIncludeGraph, CycleIsOneExactDiagnostic) {
  Result res = run(fixture_opts("cycle"));
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/sim/b.h:3:11: ana-include-cycle: include cycle: "
            "src/sim/a.h -> src/sim/b.h -> src/sim/a.h; "
            "headers must form a DAG (DESIGN.md §9)");
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeIncludeGraph, LayeringUsesTransitiveClosure) {
  // Includes are checked against the direct DAG edges: sim -> mem and
  // workload -> nic are both flagged, although nic is in workload's
  // transitive closure (through host). The closure only bounds call
  // resolution.
  Result res = run(fixture_opts("layering"));
  ASSERT_EQ(res.findings.size(), 2u);
  EXPECT_EQ(res.findings[0].text(),
            "src/sim/bridge.h:3:11: layer-dag: src/sim must not include src/mem "
            "(allowed: common, sim; DESIGN.md §9 DAG)");
  EXPECT_EQ(res.findings[1].text(),
            "src/workload/gen.h:3:11: layer-dag: src/workload must not include src/nic "
            "(allowed: common, host, net, sim, trace, transport, workload; DESIGN.md §9 DAG)");
}

TEST(AnalyzeIncludeGraph, UnusedDirectIncludeIsWarningOnly) {
  Result res = run(fixture_opts("unused"));
  EXPECT_TRUE(res.findings.empty());
  ASSERT_EQ(res.warnings.size(), 1u);
  EXPECT_EQ(res.warnings[0].text(),
            "src/net/user.cpp:1:11: ana-include-unused: unused direct "
            "include \"net/unused.h\": nothing it provides is referenced in "
            "this file (advisory -- remove it, or keep it with an allow and "
            "a why)");
  EXPECT_FALSE(res.failed);  // advisory never fails the run
}

TEST(AnalyzeReachability, HotAllocThroughHelperInOtherFile) {
  // The planted allocation lives in src/net/frames.h -- a file with no
  // hotpath marker, so no hot-* rule sees it -- and is reached only
  // through the call RxQueue::poll -> stage_frame across the nic/net
  // module boundary.
  Result res = run(fixture_opts("hot"));
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/net/frames.h:7:31: ana-hot-alloc-reach: allocation "
            "(staged_.push_back) reachable from hot-path function "
            "'RxQueue::poll' via RxQueue::poll -> FrameStager::stage_frame; "
            "steady state must be allocation-free (DESIGN.md §8)");
  EXPECT_EQ(res.findings[0].chain,
            (std::vector<std::string>{"src/nic/rx_queue.h:RxQueue::poll",
                                      "src/net/frames.h:FrameStager::stage_frame"}));
}

TEST(AnalyzeReachability, DeterminismTaintCrossesTwoHops) {
  // The wall-clock read two calls below Engine::step is reported once,
  // where it sits: det-* covers every scanned file, so no reachability
  // report is needed.
  Result res = run(fixture_opts("det"));
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/common/backoff.h:6:10: det-wallclock: wall-clock time source in simulator "
            "code; runs must be a pure function of the seed -- use sim::Simulator::now()");
}

TEST(AnalyzeReachability, MutableGlobalFromPartitionSeam) {
  Result res = run(fixture_opts("par"));
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/host/seam.h:5:30: ana-par-global-reach: mutable global "
            "'g_spin_budget' (src/common/tuning.h:3) referenced by "
            "'drain_budget', reachable from partition seam 'drain_budget' "
            "via drain_budget; partition callbacks must not share unguarded "
            "state (docs/PARALLELISM.md)");
}

TEST(AnalyzeSuppressions, HonoredAllowSilencesFinding) {
  // Same planted allocation as the hot fixture, but the sink line
  // carries an allow(ana-hot-alloc-reach) with a justification.
  Result res = run(fixture_opts("suppress"));
  EXPECT_TRUE(res.findings.empty());
  EXPECT_EQ(res.stats.suppressions_used, 1);
  EXPECT_FALSE(res.failed);
}

TEST(AnalyzeSuppressions, StaleAllowFailsStrict) {
  Options opts = fixture_opts("suppress");
  opts.strict = true;
  Result res = run(opts);
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/nic/rx_queue.h:9:1: ana-unused-suppression: "
            "allow(ana-include-cycle) no longer matches a finding; "
            "remove it");
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeBaseline, GrandfatherThenStrictCleanRoundTrip) {
  // write_baseline from a failing run; the rerun is baselined-clean,
  // including under --strict (no stale entries).
  Result first = run(fixture_opts("hot"));
  ASSERT_EQ(first.all_error_keys.size(), 1u);
  std::string path = testing::TempDir() + "analyze_baseline_roundtrip.txt";
  ASSERT_TRUE(write_baseline(path, first.all_error_keys));

  Options opts = fixture_opts("hot");
  opts.baseline_path = path;
  opts.strict = true;
  Result second = run(opts);
  EXPECT_TRUE(second.findings.empty());
  EXPECT_EQ(second.stats.baselined, 1);
  EXPECT_TRUE(second.stale_baseline.empty());
  EXPECT_FALSE(second.failed);
}

TEST(AnalyzeReport, JsonShapeIsDeterministic) {
  Result res = run(fixture_opts("hot"));
  std::string a = to_json(res.findings, res.stats);
  std::string b = to_json(res.findings, res.stats);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"hicc.analysis.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"files\": 2"), std::string::npos);
  EXPECT_NE(a.find("\"call_edges\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"ana-hot-alloc-reach\""), std::string::npos);
  EXPECT_NE(a.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(a.find("\"chain\": [\"src/nic/rx_queue.h:RxQueue::poll\", "
                   "\"src/net/frames.h:FrameStager::stage_frame\"]"),
            std::string::npos);
}

TEST(AnalyzeReport, RuleCatalogIsSorted) {
  std::vector<std::string> ids = rule_ids();
  EXPECT_EQ(ids.size(), 23u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(AnalyzeReport, RuleCatalogNamesEveryFamily) {
  std::set<std::string> families;
  for (const std::string& id : rule_ids()) families.insert(id.substr(0, id.find('-')));
  EXPECT_EQ(families,
            (std::set<std::string>{"ana", "det", "docs", "hot", "layer", "par", "rob"}));
}

TEST(AnalyzeFileRules, FixtureTreeMatchesGolden) {
  Result res = run(lint_opts("src"));
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(format_text(res, /*strict=*/false), read_file(kLintFixtures + "/expected.txt"));
}

TEST(AnalyzeFileRules, EveryRuleHasAPositiveAndEveryTwinStaysSuppressed) {
  const std::string golden = read_file(kLintFixtures + "/expected.txt");
  for (const std::string& rule : rule_ids()) {
    if (rule.rfind("ana-", 0) == 0) continue;  // the analyze_fixtures trees cover these
    EXPECT_NE(golden.find(": " + rule + ": "), std::string::npos) << rule << " never fires";
  }
  for (const char* twin : {"wallclock_allowed", "config_hook", "pool.push_back",
                           "marker_suppressed", "nic.waived_probe", "trace/sinks_internal.h",
                           "transport/swift.h", "g_calibration_allowed", "waived_knob",
                           "quick_exit", "waived_status", "seen_tables"}) {
    EXPECT_EQ(golden.find(twin), std::string::npos) << "suppressed twin " << twin << " leaked";
  }
}

TEST(AnalyzeBaseline, BaselinedFindingIsForgiven) {
  Options opts = lint_opts("src/mem/grandfathered.h");
  Result bare = run(opts);
  ASSERT_EQ(bare.findings.size(), 1u);
  EXPECT_EQ(bare.findings[0].rule, "det-wallclock");

  opts.baseline_path = kLintFixtures + "/baseline_grandfathered.txt";
  Result forgiven = run(opts);
  EXPECT_TRUE(forgiven.findings.empty());
  EXPECT_EQ(forgiven.stats.baselined, 1);
  EXPECT_FALSE(forgiven.failed);  // the stale entry only fails --strict

  opts.strict = true;
  Result strict = run(opts);
  EXPECT_TRUE(strict.failed);
  EXPECT_EQ(strict.stale_baseline,
            (std::vector<std::string>{"src/mem/grandfathered.h|det-rand|return rand();"}));
}

TEST(AnalyzeSuppressions, UnusedAllowFailsOnlyUnderStrict) {
  Options opts = lint_opts("extra/unused_allow.h");
  EXPECT_FALSE(run(opts).failed);
  opts.strict = true;
  Result res = run(opts);
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "extra/unused_allow.h:6:1: ana-unused-suppression: allow(det-rand) no longer "
            "matches a finding; remove it");
}

// The analyzer's own gate on the real tree: src/ must be strict-clean
// against the checked-in baseline, which holds exactly the three
// literal-seeded Rng default arguments.
TEST(AnalyzeRepo, SrcIsStrictClean) {
  Options opts;
  opts.root = HICC_REPO_ROOT;
  opts.paths = {"src"};
  opts.strict = true;
  Result res = run(opts);
  EXPECT_TRUE(res.findings.empty()) << format_text(res, /*strict=*/true);
  EXPECT_FALSE(res.failed) << format_text(res, /*strict=*/true);
  EXPECT_EQ(res.stats.baselined, 3);
  EXPECT_GT(res.stats.functions, 500);   // the index is real, not empty
  EXPECT_GT(res.stats.call_edges, 1000);
}

}  // namespace
}  // namespace hicc::analyze
