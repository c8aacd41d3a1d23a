// Differential battery for the sharded phase-1 state table (PR 7): hash-
// owned shards with per-worker batch routing are a STORAGE and SCHEDULING
// change only -- the deterministic canonical install (phase 2) renumbers
// every run back into the exact serial discovery order, so serial and
// k-shard explorations at any thread count must be bit-identical: same
// node ids, same compact edge triples, same action intern indices, same
// witnesses, same verdicts. The battery has three tiers:
//   1. pure fuzz of the shard-router arithmetic (analysis::shard_router,
//      the exact functions the engine calls): every hash routes to exactly
//      one shard, shard selection and in-shard probing consume disjoint
//      hash bits, resolved counts are powers of two in [1, 256];
//   2. graph-layout equality: serial vs engine runs across thread counts
//      (and with them shard counts), with and without symmetry/POR, down
//      to the intern indices inside the compact edges (renumbering is the
//      identity bijection onto the serial numbering, and therefore stable
//      across shard counts);
//   3. adversary equality on the n=3/4 fixtures: verdict, per-init
//      valence, bivalent init, hook shape, fair cycle, and byte-identical
//      concrete witnesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/parallel_explorer.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/symmetry.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relayFixture(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> floodingFixture(int n, int f) {
  processes::FloodingConsensusSpec spec;
  spec.processCount = n;
  spec.channelResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildFloodingConsensusSystem(spec);
}

// ---------------------------------------------------------------------------
// Tier 1: router arithmetic fuzz (dense_set_fuzz_test.cpp style -- random
// inputs against properties, seeds logged for replay).

TEST(ShardRouterFuzz, ResolvedCountIsPowerOfTwoInRange) {
  for (unsigned workers = 0; workers <= 600; ++workers) {
    const unsigned s = shard_router::resolveShardCount(workers);
    EXPECT_GE(s, 1u) << workers;
    EXPECT_LE(s, shard_router::kMaxShards) << workers;
    EXPECT_EQ(s & (s - 1), 0u)
        << "not a power of two: " << s << " from workers=" << workers;
    // One shard per worker, rounded up to a power of two and clamped.
    EXPECT_EQ(s, std::min<std::size_t>(
                     std::bit_ceil(std::max<std::size_t>(workers, 1)),
                     shard_router::kMaxShards));
  }
}

TEST(ShardRouterFuzz, EveryHashRoutesToExactlyOneShard) {
  std::mt19937_64 rng(0x5eed7001);
  SCOPED_TRACE("seed 0x5eed7001");
  for (int round = 0; round < 20000; ++round) {
    const std::size_t hash = rng();
    for (unsigned shardCount = 1; shardCount <= shard_router::kMaxShards;
         shardCount *= 2) {
      const std::size_t owner = shard_router::shardIndexOf(hash, shardCount);
      ASSERT_LT(owner, shardCount);
      // Routing is a pure function of (hash, shardCount): re-asking gives
      // the same owner, and no other shard claims the hash.
      ASSERT_EQ(owner, shard_router::shardIndexOf(hash, shardCount));
      // Refining the shard count splits each shard without reshuffling:
      // the owner under 2k shards maps back onto the owner under k.
      if (shardCount > 1) {
        ASSERT_EQ(owner & (shardCount / 2 - 1),
                  shard_router::shardIndexOf(hash, shardCount / 2));
      }
    }
  }
}

TEST(ShardRouterFuzz, RoutingPartitionsUniformHashesEvenly) {
  // Hash-owned sharding only balances if the low bits are well mixed;
  // over uniform hashes every shard must receive its fair share (loose
  // 4-sigma bound). This is a property of the router, not the hash mix,
  // but it guards against a future routing change that eats dead bits.
  std::mt19937_64 rng(0x5eed7002);
  constexpr unsigned kShards = 16;
  constexpr int kDraws = 64000;
  std::vector<int> perShard(kShards, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++perShard[shard_router::shardIndexOf(rng(), kShards)];
  }
  const double expect = static_cast<double>(kDraws) / kShards;
  const double sigma4 = 4.0 * std::sqrt(expect);
  for (unsigned s = 0; s < kShards; ++s) {
    EXPECT_NEAR(static_cast<double>(perShard[s]), expect, sigma4)
        << "shard " << s << " starved or flooded";
  }
}

TEST(ShardRouterFuzz, ProbeStartUsesBitsAboveShardSelection) {
  std::mt19937_64 rng(0x5eed7003);
  for (int round = 0; round < 20000; ++round) {
    const std::size_t hash = rng();
    for (unsigned shardBits : {0u, 1u, 2u, 4u, 8u}) {
      const std::size_t indexMask = (std::size_t{1} << 10) - 1;
      const std::size_t start =
          shard_router::probeStart(hash, shardBits, indexMask);
      ASSERT_LE(start, indexMask);
      // Flipping any shard-selection bit must not move the probe start:
      // the two roles consume disjoint hash bits.
      for (unsigned b = 0; b < shardBits; ++b) {
        ASSERT_EQ(start, shard_router::probeStart(hash ^ (std::size_t{1} << b),
                                                  shardBits, indexMask));
      }
      // And the first bit ABOVE shard selection is the probe's lowest bit:
      // flipping it moves the start by exactly one slot.
      ASSERT_EQ(start ^ 1u,
                shard_router::probeStart(hash ^ (std::size_t{1} << shardBits),
                                         shardBits, indexMask));
    }
  }
}

// ---------------------------------------------------------------------------
// Tier 2: graph-layout equality across thread counts. Three workers get
// four shards, so the worker and shard counts also come apart.

constexpr unsigned kThreads[] = {2, 3, 4};

ExplorationPolicy threadsPolicy(unsigned threads) {
  ExplorationPolicy pol;
  pol.threads = threads;
  return pol;
}

// Bit-identity of two explored graphs: node numbering, states, compact
// edge triples (task/action/to intern indices), witness paths, and the
// action pool itself.
void expectGraphsBitIdentical(const StateGraph& gs, const StateGraph& gp,
                              const std::string& label) {
  ASSERT_EQ(gs.size(), gp.size()) << label;
  ASSERT_EQ(gs.actionPoolSize(), gp.actionPoolSize()) << label;
  for (NodeId id = 0; id < gs.size(); ++id) {
    ASSERT_TRUE(gs.state(id).equals(gp.state(id))) << label << " node " << id;
    EXPECT_EQ(gs.rootOf(id), gp.rootOf(id)) << label << " node " << id;
    const auto se = gs.cachedSuccessors(id);
    const auto pe = gp.cachedSuccessors(id);
    ASSERT_EQ(se.has_value(), pe.has_value()) << label << " node " << id;
    if (!se) continue;
    ASSERT_EQ(se->size(), pe->size()) << label << " node " << id;
    for (std::size_t k = 0; k < se->size(); ++k) {
      const CompactEdge& a = se->data()[k];
      const CompactEdge& b = pe->data()[k];
      ASSERT_EQ(a.task, b.task) << label << " node " << id << " edge " << k;
      ASSERT_EQ(a.action, b.action) << label << " node " << id << " edge " << k;
      ASSERT_EQ(a.to, b.to) << label << " node " << id << " edge " << k;
    }
    const auto sp = gs.pathTo(id);
    const auto pp = gp.pathTo(id);
    ASSERT_EQ(sp.size(), pp.size()) << label << " node " << id;
    for (std::size_t k = 0; k < sp.size(); ++k) {
      ASSERT_EQ(sp[k].task, pp[k].task) << label << " node " << id;
      ASSERT_EQ(sp[k].action, pp[k].action) << label << " node " << id;
      ASSERT_EQ(sp[k].to, pp[k].to) << label << " node " << id;
    }
  }
  for (std::uint32_t a = 0; a < gs.actionPoolSize(); ++a) {
    ASSERT_EQ(gs.actionAt(a), gp.actionAt(a)) << label << " action " << a;
  }
}

enum class Mode { Plain, Sym, SymPor };

// Shard-tally sanity on an engine run: every discovered state was routed
// into exactly one shard, every active (worker, shard) pair flushed, and
// cross-shard edges never exceed the edges computed. Under POR phase 1
// interns the FULL successor set while the canonical install replays the
// serial reduced decisions and reports the reduced count, so routed is an
// upper bound there rather than an equality.
void expectShardTalliesSane(const ExploreStats& stats, unsigned threads,
                            Mode mode) {
  EXPECT_EQ(stats.shard.count, shard_router::resolveShardCount(threads));
  if (mode == Mode::SymPor) {
    EXPECT_GE(stats.shard.routed, stats.statesDiscovered);
  } else {
    EXPECT_EQ(stats.shard.routed, stats.statesDiscovered);
  }
  EXPECT_GE(stats.shard.batchFlushes, stats.shard.activePairs);
  EXPECT_LE(stats.shard.crossShardEdges, stats.edgesComputed);
}

const char* modeName(Mode m) {
  switch (m) {
    case Mode::Plain: return "plain";
    case Mode::Sym: return "sym";
    case Mode::SymPor: return "sym+por";
  }
  return "?";
}

// Build a graph for the fixture under the given reduction mode; each run
// gets its own System instance so transition memos cannot leak across.
struct Explored {
  std::unique_ptr<ioa::System> sys;
  std::unique_ptr<StateGraph> g;
  ExploreStats stats;
};

Explored explore(std::unique_ptr<ioa::System> sys, Mode mode,
            const ExplorationPolicy& pol) {
  Explored r;
  r.sys = std::move(sys);
  switch (mode) {
    case Mode::Plain:
      r.g = std::make_unique<StateGraph>(*r.sys);
      break;
    case Mode::Sym:
      r.g = std::make_unique<StateGraph>(
          *r.sys, SymmetryPolicy::forSystem(*r.sys, SymmetryMode::On));
      break;
    case Mode::SymPor:
      r.g = std::make_unique<StateGraph>(
          *r.sys, SymmetryPolicy::forSystem(*r.sys, SymmetryMode::On),
          PorPolicy::forSystem(*r.sys, PorMode::On));
      break;
  }
  const NodeId root =
      r.g->intern(canonicalInitialization(*r.sys, r.sys->processCount() / 2));
  r.stats = exploreReachable(*r.g, root, pol);
  return r;
}

void runLayoutMatrix(std::unique_ptr<ioa::System> (*build)(), Mode mode) {
  const Explored serial = explore(build(), mode, ExplorationPolicy{});
  ASSERT_GT(serial.g->size(), 0u);
  for (const unsigned threads : kThreads) {
    const Explored cell = explore(build(), mode, threadsPolicy(threads));
    const std::string label =
        std::string(modeName(mode)) + " t" + std::to_string(threads);
    EXPECT_EQ(serial.stats.statesDiscovered, cell.stats.statesDiscovered)
        << label;
    if (mode == Mode::SymPor) {
      // The engine expands full successor sets in phase 1 and lets the
      // canonical install replay the serial ample decisions, so it
      // evaluates at least as many transitions as the reduced serial BFS.
      EXPECT_GE(cell.stats.edgesComputed, serial.stats.edgesComputed) << label;
    } else {
      EXPECT_EQ(serial.stats.edgesComputed, cell.stats.edgesComputed) << label;
    }
    expectShardTalliesSane(cell.stats, threads, mode);
    expectGraphsBitIdentical(*serial.g, *cell.g, label);
  }
}

std::unique_ptr<ioa::System> relay30() { return relayFixture(3, 0); }
std::unique_ptr<ioa::System> relay31() { return relayFixture(3, 1); }
std::unique_ptr<ioa::System> flooding30() { return floodingFixture(3, 0); }

TEST(ShardEquivalence, LayoutBitIdenticalRelay30) {
  runLayoutMatrix(relay30, Mode::Plain);
}

TEST(ShardEquivalence, LayoutBitIdenticalRelay31) {
  runLayoutMatrix(relay31, Mode::Plain);
}

TEST(ShardEquivalence, LayoutBitIdenticalRelay31Symmetry) {
  runLayoutMatrix(relay31, Mode::Sym);
}

TEST(ShardEquivalence, LayoutBitIdenticalRelay31SymmetryPor) {
  runLayoutMatrix(relay31, Mode::SymPor);
}

TEST(ShardEquivalence, LayoutBitIdenticalFlooding30Symmetry) {
  runLayoutMatrix(flooding30, Mode::Sym);
}

TEST(ShardEquivalence, StableAcrossWorkerCountsWithoutSerialReference) {
  // Renumbering must be stable across worker (and so shard) counts on its
  // own terms, not only relative to the serial graph.
  const Explored a = explore(relay31(), Mode::Plain, threadsPolicy(2));
  const Explored b = explore(relay31(), Mode::Plain, threadsPolicy(4));
  expectGraphsBitIdentical(*a.g, *b.g, "t2 vs t4");
}

// ---------------------------------------------------------------------------
// Tier 3: adversary-pipeline equality (verdict, valences, hook shape,
// concrete witnesses) on the n=3/4 fixtures.

AdversaryReport runPipeline(const ioa::System& sys, int claim, Mode mode,
                            unsigned threads) {
  AdversaryConfig cfg;
  cfg.claimedFailures = claim;
  if (mode != Mode::Plain) cfg.symmetry = SymmetryMode::On;
  if (mode == Mode::SymPor) cfg.por = PorMode::On;
  cfg.exploration.threads = threads;
  return analyzeConsensusCandidate(sys, cfg);
}

void expectSameProofShape(const AdversaryReport& base,
                          const AdversaryReport& cell,
                          const std::string& label) {
  EXPECT_EQ(base.verdict, cell.verdict)
      << label << "\nbase: " << base.summary()
      << "\ncell: " << cell.summary();
  EXPECT_EQ(base.statesExplored, cell.statesExplored) << label;
  ASSERT_EQ(base.initializations.size(), cell.initializations.size()) << label;
  for (std::size_t i = 0; i < base.initializations.size(); ++i) {
    EXPECT_EQ(base.initializations[i].onesPrefix,
              cell.initializations[i].onesPrefix)
        << label;
    EXPECT_EQ(base.initializations[i].valence, cell.initializations[i].valence)
        << label << ": initialization " << base.initializations[i].onesPrefix;
  }
  EXPECT_EQ(base.bivalentInit.has_value(), cell.bivalentInit.has_value())
      << label;
  if (base.bivalentInit && cell.bivalentInit) {
    EXPECT_EQ(base.bivalentInit->onesPrefix, cell.bivalentInit->onesPrefix)
        << label;
  }
  EXPECT_EQ(base.hook.has_value(), cell.hook.has_value()) << label;
  EXPECT_EQ(base.fairCycle, cell.fairCycle) << label;
  // Witnesses byte-for-byte: the renumbering pass must not perturb the
  // tie-breaks the hook/adversary walk takes.
  ASSERT_EQ(base.witness.size(), cell.witness.size()) << label;
  for (std::size_t i = 0; i < base.witness.size(); ++i) {
    EXPECT_EQ(base.witness.actions()[i].str(), cell.witness.actions()[i].str())
        << label << ": witness diverges at action " << i;
  }
}

void expectWitnessReplays(const ioa::System& sys,
                          const AdversaryReport& report,
                          const std::string& label) {
  if (report.verdict != AdversaryReport::Verdict::TerminationViolation) return;
  ASSERT_FALSE(report.witness.empty()) << label;
  ioa::SystemState s = sys.initialState();
  for (const ioa::Action& a : report.witness.actions()) {
    ASSERT_NO_THROW(sys.applyInPlace(s, a)) << label << ": " << a.str();
  }
  EXPECT_EQ(report.witness.failedEndpoints(), report.witnessFailures) << label;
}

void runPipelineMatrix(const ioa::System& sys, int claim,
                       std::initializer_list<Mode> modes) {
  for (Mode mode : modes) {
    const AdversaryReport base = runPipeline(sys, claim, mode, 1);
    for (const unsigned threads : {2u, 4u}) {
      const AdversaryReport cell = runPipeline(sys, claim, mode, threads);
      const std::string label =
          std::string(modeName(mode)) + " t" + std::to_string(threads);
      expectSameProofShape(base, cell, label);
      expectWitnessReplays(sys, cell, label);
    }
  }
}

TEST(ShardEquivalence, PipelineRelayN3FZero) {
  auto sys = relayFixture(3, 0);
  runPipelineMatrix(*sys, 1, {Mode::Plain, Mode::Sym, Mode::SymPor});
}

TEST(ShardEquivalence, PipelineRelayN3FOne) {
  // The genuinely-boosting claim (f = 1 -> 2): the heart of Theorem 2.
  auto sys = relayFixture(3, 1);
  runPipelineMatrix(*sys, 2, {Mode::Plain, Mode::Sym, Mode::SymPor});
}

TEST(ShardEquivalence, PipelineRelayN4FOne) {
  // n=4 is the expensive fixture: cover it with the stacked reduction
  // (the configuration the CLI defaults push users toward).
  auto sys = relayFixture(4, 1);
  runPipelineMatrix(*sys, 2, {Mode::SymPor});
}

TEST(ShardEquivalence, PipelineFloodingN3) {
  auto sys = floodingFixture(3, 0);
  runPipelineMatrix(*sys, 1, {Mode::Sym, Mode::SymPor});
}

}  // namespace
}  // namespace boosting::analysis
