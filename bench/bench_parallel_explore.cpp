// Parallel exploration throughput: states/sec of the work-stealing engine
// over the scale-test systems (the graphs large enough for expansion cost
// -- state cloning, task application, hashing -- to dominate), swept over
// the worker count (the phase-1 table always has bit_ceil(threads) shards).
// The axis defaults to threads {1,2,4,8} and can be overridden with
// --bench-threads=LIST (or the BENCH_THREADS environment variable).
//
// Per cell, besides wall-clock rates, the bench reports scaling_efficiency
// (rate / (threads x serial reference rate), serial reference measured once
// per fixture) and the explorer.shard.* contention tallies: routed,
// batch_flushes, install_queue_depth (largest batch a flush handed over),
// and cross_shard_edges. maxStates caps the runs so the biggest fixtures
// stay bounded; the cap makes the explored set scheduling-dependent, which
// is fine for a throughput benchmark (and exactly why capped runs are
// documented as non-certificate-grade in analysis/parallel_explorer.h).
// Results are also written to BENCH_parallel_explore.json (override with
// BENCH_JSON=path) for CI artifacts and EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <chrono>

#include "analysis/bivalence.h"
#include "analysis/parallel_explorer.h"
#include "bench_json.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"

using namespace boosting;
using analysis::ExplorationPolicy;
using analysis::NodeId;
using analysis::StateGraph;

namespace {

std::unique_ptr<ioa::System> relay(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> rotating(int n) {
  processes::RotatingConsensusSpec spec;
  spec.processCount = n;
  return processes::buildRotatingConsensusSystem(spec);
}

std::unique_ptr<ioa::System> flooding(int n) {
  processes::FloodingConsensusSpec spec;
  spec.processCount = n;
  spec.channelResilience = n - 1;
  return processes::buildFloodingConsensusSystem(spec);
}

// One sweep cell. `serialRateCache` is a per-fixture static: the first
// cell of a fixture measures the serial (1 thread) reference rate
// once, so every cell of that fixture normalizes scaling_efficiency against
// the same baseline.
void runExplore(benchmark::State& state, const ioa::System& sys,
                std::size_t maxStates, double* serialRateCache) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  if (*serialRateCache == 0.0) {
    {
      StateGraph warm(sys);  // warm caches so the reference is not cold
      analysis::exploreReachable(
          warm,
          warm.intern(
              analysis::canonicalInitialization(sys, sys.processCount() / 2)),
          ExplorationPolicy{1, maxStates});
    }
    StateGraph g(sys);
    NodeId root = g.intern(
        analysis::canonicalInitialization(sys, sys.processCount() / 2));
    const auto t0 = std::chrono::steady_clock::now();
    auto stats =
        analysis::exploreReachable(g, root, ExplorationPolicy{1, maxStates});
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    *serialRateCache =
        secs > 0.0 ? static_cast<double>(stats.statesDiscovered) / secs : -1.0;
  }
  std::size_t states = 0;
  std::int64_t discovered = 0;
  double exploreSecs = 0.0;
  analysis::ExploreStats last;
  for (auto _ : state) {
    StateGraph g(sys);
    NodeId root =
        g.intern(analysis::canonicalInitialization(sys, sys.processCount() / 2));
    ExplorationPolicy pol;
    pol.threads = threads;
    pol.maxStates = maxStates;
    const auto t0 = std::chrono::steady_clock::now();
    last = analysis::exploreReachable(g, root, pol);
    exploreSecs +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    discovered += static_cast<std::int64_t>(last.statesDiscovered);
    states = g.size();
  }
  const double rate =
      exploreSecs > 0.0 ? static_cast<double>(discovered) / exploreSecs : 0.0;
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(discovered), benchmark::Counter::kIsRate);
  state.counters["scaling_efficiency"] =
      *serialRateCache > 0.0
          ? rate / (static_cast<double>(threads) * *serialRateCache)
          : 0.0;
  state.counters["install_queue_depth"] =
      static_cast<double>(last.shard.maxQueueDepth);
  state.counters["routed"] = static_cast<double>(last.shard.routed);
  state.counters["batch_flushes"] =
      static_cast<double>(last.shard.batchFlushes);
  state.counters["cross_shard_edges"] =
      static_cast<double>(last.shard.crossShardEdges);
}

void BM_ParallelExploreRelay(benchmark::State& state) {
  static double serialRate = 0.0;
  auto sys = relay(3, 0);
  runExplore(state, *sys, 0, &serialRate);  // full region, uncapped
}

void BM_ParallelExploreRelayWide(benchmark::State& state) {
  static double serialRate = 0.0;
  auto sys = relay(4, 0);
  runExplore(state, *sys, 200000, &serialRate);
}

void BM_ParallelExploreRotating(benchmark::State& state) {
  static double serialRate = 0.0;
  auto sys = rotating(4);
  runExplore(state, *sys, 150000, &serialRate);
}

void BM_ParallelExploreFlooding(benchmark::State& state) {
  static double serialRate = 0.0;
  auto sys = flooding(4);
  runExplore(state, *sys, 150000, &serialRate);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<unsigned> threadsAxis = boosting::benchjson::extractCsvFlag(
      argc, argv, "--bench-threads", "BENCH_THREADS", {1, 2, 4, 8});
  const struct {
    const char* name;
    void (*fn)(benchmark::State&);
  } fixtures[] = {
      {"BM_ParallelExploreRelay", BM_ParallelExploreRelay},
      {"BM_ParallelExploreRelayWide", BM_ParallelExploreRelayWide},
      {"BM_ParallelExploreRotating", BM_ParallelExploreRotating},
      {"BM_ParallelExploreFlooding", BM_ParallelExploreFlooding},
  };
  for (const auto& fixture : fixtures) {
    auto* b = benchmark::RegisterBenchmark(fixture.name, fixture.fn);
    b->Unit(benchmark::kMillisecond)->UseRealTime();
    for (unsigned t : threadsAxis) b->Arg(static_cast<std::int64_t>(t));
  }
  return boosting::benchjson::runBenchmarks(argc, argv,
                                            "BENCH_parallel_explore.json");
}
