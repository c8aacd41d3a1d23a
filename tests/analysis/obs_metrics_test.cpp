// Observability end-to-end: the registry's counters must agree with the
// engines' ground truth (discovery counts equal to the report's, memo
// hits + misses == lookups, explore.* tallies equal to the returned
// stats), timers must record the phases that ran, and the metrics JSON
// export must be well formed.
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
  std::size_t reported = 0;  // AdversaryReport::statesExplored
};

PipelineCounters runPipeline(const ioa::System& sys, int claim,
                             obs::Registry& reg) {
  AdversaryConfig cfg;
  cfg.claimedFailures = claim;
  cfg.exploration.metrics = &reg;
  const AdversaryReport report = analyzeConsensusCandidate(sys, cfg);
  return PipelineCounters{reg.value("graph.states_discovered"),
                          reg.value("graph.edges_discovered"),
                          report.statesExplored};
}

TEST(ObsMetrics, DiscoveryCountersMatchTheReport) {
  struct Fixture {
    std::unique_ptr<ioa::System> sys;
    int claim;
  };
  Fixture fixtures[] = {{relay(3, 1), 2}, {tob(2, 0), 1}};
  for (const auto& fx : fixtures) {
    obs::Registry reg;
    const PipelineCounters c = runPipeline(*fx.sys, fx.claim, reg);
    EXPECT_GT(c.states, 0u);
    EXPECT_GT(c.edges, 0u);
    EXPECT_EQ(c.states, c.reported);
  }
}

TEST(ObsMetrics, CacheHitsPlusMissesEqualLookups) {
  auto sys = relay(3, 1);
  obs::Registry reg;
  runPipeline(*sys, 2, reg);
  EXPECT_EQ(reg.value("cache.enabled_hits") + reg.value("cache.enabled_misses"),
            reg.value("cache.enabled_lookups"));
  EXPECT_EQ(reg.value("cache.apply_hits") + reg.value("cache.apply_misses"),
            reg.value("cache.apply_lookups"));
  EXPECT_GT(reg.value("cache.enabled_lookups"), 0u);
}

TEST(ObsMetrics, PhaseTimersRecorded) {
  auto sys = relay(3, 1);
  obs::Registry reg;
  runPipeline(*sys, 2, reg);
  for (const char* phase :
       {"phase.adversary", "phase.bivalence", "phase.valence",
        "phase.safety_scan", "phase.hook"}) {
    EXPECT_GT(reg.timer(phase).count, 0u) << phase << " never reported";
  }
  // The hook pipeline ends in a gamma run on this fixture.
  EXPECT_GT(reg.value("runner.runs"), 0u);
}

TEST(ObsMetrics, ExploreFlushesItsStats) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  obs::Registry reg;
  ExplorationPolicy policy;
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
  runPipeline(*sys, 2, reg);
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
  EXPECT_NE(doc.find("\"schema\": \"boosting-metrics-v11\""), std::string::npos);
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
  // v11 dropped the engine-only explorer.worker*/threads counters.
  EXPECT_EQ(doc.find("explorer.worker"), std::string::npos);
  EXPECT_EQ(doc.find("explorer.threads"), std::string::npos);
  // v10 memo gauges.
  EXPECT_NE(doc.find("memo.slot_representatives"), std::string::npos);
  EXPECT_NE(doc.find("memo.transition_entries"), std::string::npos);
}

TEST(ObsMetrics, MemoGaugesMatchTheSharedMemo) {
  // With an injected memo the flushed gauges are exactly its sizes.
  auto sys = relay(3, 1);
  obs::Registry reg;
  AdversaryConfig cfg;
  cfg.claimedFailures = 2;
  cfg.exploration.metrics = &reg;
  cfg.memo = std::make_shared<AnalysisMemo>(*sys);
  (void)analyzeConsensusCandidate(*sys, cfg);
  EXPECT_GT(reg.value("graph.states_discovered"), 0u);
  EXPECT_GE(reg.value("memo.slot_representatives"), 1u);
  EXPECT_EQ(reg.value("memo.slot_representatives"),
            cfg.memo->slotCanon().size());
  EXPECT_GE(reg.value("memo.transition_entries"), 1u);
  EXPECT_EQ(reg.value("memo.transition_entries"),
            cfg.memo->transitions().size());
}

TEST(ObsMetrics, ColdPrivateMemoHasOneEntryPerEnabledMiss) {
  // Every enabled-memo miss computes exactly one (owner slot, task) entry
  // and no lookup computes one without a miss, so on a cold private memo
  // serving one serial certificate the two gauges agree exactly (relay
  // n=6 f=1, symmetry off, POR auto: 22,724 each).
  for (const PorMode por : {PorMode::Auto, PorMode::Off}) {
    auto sys = relay(4, 1);
    obs::Registry reg;
    AdversaryConfig cfg;
    cfg.claimedFailures = 2;
    cfg.por = por;
    cfg.exploration.metrics = &reg;
    (void)analyzeConsensusCandidate(*sys, cfg);
    EXPECT_GT(reg.value("cache.enabled_misses"), 0u);
    EXPECT_EQ(reg.value("memo.transition_entries"),
              reg.value("cache.enabled_misses"));
  }
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
