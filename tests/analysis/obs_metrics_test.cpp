// Observability end-to-end: the registry's counters must agree with the
// engines' ground truth (serial == parallel discovery counts, memo
// hits + misses == lookups, per-worker expansions summing to the states
// actually expanded), timers must record the phases that ran, and the
// metrics JSON export must be well formed.
#include "analysis/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/parallel_explorer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"
#include "sim/runner.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relay(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob(int n, int f) {
  processes::TOBConsensusSpec spec;
  spec.processCount = n;
  spec.serviceResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildTOBConsensusSystem(spec);
}

// Run the full adversary with metrics attached and return the registry's
// graph-level discovery counters.
struct PipelineCounters {
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
};

PipelineCounters runPipeline(const ioa::System& sys, int claim,
                             unsigned threads, obs::Registry& reg) {
  AdversaryConfig cfg;
  cfg.claimedFailures = claim;
  cfg.exploration.threads = threads;
  cfg.exploration.metrics = &reg;
  (void)analyzeConsensusCandidate(sys, cfg);
  return PipelineCounters{reg.value("graph.states_discovered"),
                          reg.value("graph.edges_discovered")};
}

TEST(ObsMetrics, SerialAndParallelDiscoveryCountersAgree) {
  struct Fixture {
    std::unique_ptr<ioa::System> sys;
    int claim;
  };
  Fixture fixtures[] = {{relay(3, 1), 2}, {tob(2, 0), 1}};
  for (const auto& fx : fixtures) {
    obs::Registry serialReg, parallelReg;
    const PipelineCounters s = runPipeline(*fx.sys, fx.claim, 1, serialReg);
    const PipelineCounters p = runPipeline(*fx.sys, fx.claim, 2, parallelReg);
    EXPECT_GT(s.states, 0u);
    EXPECT_GT(s.edges, 0u);
    EXPECT_EQ(s.states, p.states);
    EXPECT_EQ(s.edges, p.edges);
  }
}

TEST(ObsMetrics, CacheHitsPlusMissesEqualLookups) {
  auto sys = relay(3, 1);
  for (unsigned threads : {1u, 2u}) {
    obs::Registry reg;
    runPipeline(*sys, 2, threads, reg);
    for (const char* prefix : {"cache.", "explorer.cache."}) {
      const std::string p(prefix);
      EXPECT_EQ(reg.value(p + "enabled_hits") + reg.value(p + "enabled_misses"),
                reg.value(p + "enabled_lookups"))
          << p << " enabled memo, threads=" << threads;
      EXPECT_EQ(reg.value(p + "apply_hits") + reg.value(p + "apply_misses"),
                reg.value(p + "apply_lookups"))
          << p << " apply memo, threads=" << threads;
    }
    // Something must actually have been counted on the path that ran.
    const std::string active = threads == 1 ? "cache." : "explorer.cache.";
    EXPECT_GT(reg.value(active + "enabled_lookups"), 0u)
        << "threads=" << threads;
  }
}

TEST(ObsMetrics, PhaseTimersRecorded) {
  auto sys = relay(3, 1);
  obs::Registry reg;
  runPipeline(*sys, 2, 1, reg);
  for (const char* phase :
       {"phase.adversary", "phase.bivalence", "phase.valence",
        "phase.safety_scan", "phase.hook"}) {
    EXPECT_GT(reg.timer(phase).count, 0u) << phase << " never reported";
  }
  // The hook pipeline ends in a gamma run on this fixture.
  EXPECT_GT(reg.value("runner.runs"), 0u);
}

TEST(ObsMetrics, PerWorkerExpansionsSumToStates) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  ExplorationPolicy policy;
  policy.threads = 2;
  const ExploreStats stats = exploreReachable(g, root, policy);
  ASSERT_FALSE(stats.truncated);
  ASSERT_EQ(stats.perWorker.size(), 2u);
  std::uint64_t expanded = 0;
  for (const auto& ws : stats.perWorker) expanded += ws.expanded;
  EXPECT_EQ(expanded, stats.statesDiscovered);
  // Graph-level stats agree with the engine's view after install.
  EXPECT_EQ(g.stats().statesDiscovered, stats.statesDiscovered);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
}

TEST(ObsMetrics, ParallelExploreReportsShardCountAndNoInstallWait) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  obs::Registry reg;
  ExplorationPolicy policy;
  policy.threads = 2;
  policy.metrics = &reg;
  const ExploreStats stats = exploreReachable(g, root, policy);
  EXPECT_EQ(stats.shard.count, shard_router::resolveShardCount(2));
  EXPECT_EQ(reg.value("explorer.shard.count"), stats.shard.count);
  // The canonical install runs after the join: nothing waits on phase 1.
  EXPECT_EQ(stats.pipeline.installWaitNs, 0u);
}

TEST(ObsMetrics, SerialExploreFlushesFrontierPeak) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  obs::Registry reg;
  ExplorationPolicy policy;  // threads = 1
  policy.metrics = &reg;
  const ExploreStats stats = exploreReachable(g, root, policy);
  EXPECT_EQ(reg.value("explore.states_discovered"), stats.statesDiscovered);
  EXPECT_EQ(reg.value("explore.edges_computed"), stats.edgesComputed);
  EXPECT_GT(reg.value("explore.frontier_peak"), 0u);
  EXPECT_EQ(reg.value("explore.frontier_peak"), stats.frontierPeak);
}

TEST(ObsMetrics, RegistryPrimitives) {
  obs::Registry reg;
  reg.add("a", 2);
  reg.add("a", 3);
  EXPECT_EQ(reg.value("a"), 5u);
  reg.maxOf("m", 7);
  reg.maxOf("m", 4);
  EXPECT_EQ(reg.value("m"), 7u);
  reg.addTime("t", 100);
  reg.addTime("t", 50);
  EXPECT_EQ(reg.timer("t").wallNs, 150u);
  EXPECT_EQ(reg.timer("t").count, 2u);
  reg.derive("d", 0.5);
  ASSERT_EQ(reg.derived().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.derived()[0].second, 0.5);
  // Null-registry timer must be inert.
  { obs::ScopedTimer t(nullptr, "never"); }
  EXPECT_EQ(reg.timer("never").count, 0u);
}

TEST(ObsMetrics, MetricsJsonIsWellFormed) {
  auto sys = relay(3, 1);
  obs::Registry reg;
  runPipeline(*sys, 2, 2, reg);
  reg.derive("cache_hit_rate", 0.75);
  const std::string path =
      testing::TempDir() + "/obs_metrics_test_metrics.json";
  ASSERT_TRUE(reg.writeMetricsJson(path, "obs_metrics_test"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  std::remove(path.c_str());
  // Structural sanity: balanced braces/brackets, the schema marker, and
  // the sections the schema requires.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
  EXPECT_NE(doc.find("\"schema\": \"boosting-metrics-v9\""), std::string::npos);
  EXPECT_NE(doc.find("\"tool\": \"obs_metrics_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"timers\""), std::string::npos);
  EXPECT_NE(doc.find("\"derived\""), std::string::npos);
  EXPECT_NE(doc.find("graph.states_discovered"), std::string::npos);
  // v3 memory gauges: the flat-layout accounting plus peak RSS.
  EXPECT_NE(doc.find("graph.bytes_states"), std::string::npos);
  EXPECT_NE(doc.find("graph.bytes_edges"), std::string::npos);
  EXPECT_NE(doc.find("graph.bytes_index"), std::string::npos);
  EXPECT_NE(doc.find("process.peak_rss_bytes"), std::string::npos);
  EXPECT_NE(doc.find("explorer.worker0.expanded"), std::string::npos);
}

TEST(ObsMetrics, TraceWriterEmitsOneJsonObjectPerLine) {
  const std::string path = testing::TempDir() + "/obs_metrics_test_trace.jsonl";
  {
    std::string err;
    auto tw = obs::TraceWriter::open(path, &err);
    ASSERT_TRUE(tw) << err;
    tw->event("alpha", {{"i", 1}, {"s", "x\"y"}});
    tw->event("beta", {{"rate", 0.25}, {"flag", true}});
    EXPECT_EQ(tw->eventsWritten(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ev\":"), std::string::npos);
    EXPECT_NE(line.find("\"t_ns\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(ObsMetrics, RunnerFlushesScheduleEvents) {
  auto sys = relay(2, 0);
  obs::Registry reg;
  sim::RunConfig rc;
  rc.inits = sim::binaryInits(2, 0b01);
  rc.metrics = &reg;
  const sim::RunResult rr = sim::run(*sys, rc);
  EXPECT_EQ(reg.value("runner.runs"), 1u);
  EXPECT_EQ(reg.value("runner.steps"), rr.steps);
  EXPECT_EQ(reg.value(std::string("runner.stopped.") +
                      sim::runReasonName(rr.reason)),
            1u);
}

}  // namespace
}  // namespace boosting::analysis
