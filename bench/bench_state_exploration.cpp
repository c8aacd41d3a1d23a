// E9 (Sections 3.2-3.3): raw throughput of the execution-graph machinery
// that every certificate rests on -- state copying/hashing, successor
// expansion, and full reachable-set exploration with valence computation,
// over both the relay and TOB fixtures.
//
// Exploration uses the engine's own BFS (analysis::exploreReachable), so
// states/sec here is exactly what the certificate pipeline sees. Besides
// wall-clock rates, each exploration run reports the SystemState perf
// counters (state copies, COW slot clones, slot rehashes) per discovered
// state, which is what the copy-on-write representation is meant to
// shrink. Results are also written to BENCH_state_explore.json (override
// with BENCH_JSON=path) for CI artifacts and EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <chrono>

#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/metrics.h"
#include "analysis/parallel_explorer.h"
#include "analysis/por.h"
#include "analysis/symmetry.h"
#include "analysis/valence.h"
#include "bench_json.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"

using namespace boosting;
using analysis::ExplorationPolicy;
using analysis::NodeId;
using analysis::StateGraph;
using analysis::ValenceAnalyzer;

namespace {

std::unique_ptr<ioa::System> relay(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob(int n) {
  processes::TOBConsensusSpec spec;
  spec.processCount = n;
  return processes::buildTOBConsensusSystem(spec);
}

void BM_StateHash(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  ioa::SystemState s = analysis::canonicalInitialization(*sys, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.hash());
  }
}

void BM_StateHashColdCache(benchmark::State& state) {
  // Worst case for the per-slot caches: every slot's hash is recomputed
  // (fullRehash bypasses the memoization entirely).
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  ioa::SystemState s = analysis::canonicalInitialization(*sys, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.fullRehash());
  }
}

void BM_StateClone(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  ioa::SystemState s = analysis::canonicalInitialization(*sys, 1);
  for (auto _ : state) {
    ioa::SystemState copy(s);
    benchmark::DoNotOptimize(copy);
  }
}

// Full failure-free reachable region from the canonical initialization
// alpha_{n/2}, expanded by the engine's own serial BFS. Reports states/sec
// plus the COW counters normalized per discovered state.
void exploreSerial(const ioa::System& sys, benchmark::State& state) {
  std::size_t states = 0;
  std::int64_t expanded = 0;
  const ioa::StatePerfCounters before = ioa::statePerfSnapshot();
  for (auto _ : state) {
    StateGraph g(sys);
    NodeId root = g.intern(
        analysis::canonicalInitialization(sys, sys.processCount() / 2));
    auto stats =
        analysis::exploreReachable(g, root, ExplorationPolicy{});
    expanded += static_cast<std::int64_t>(stats.statesDiscovered);
    states = g.size();
  }
  const ioa::StatePerfCounters after = ioa::statePerfSnapshot();
  const double denom = expanded > 0 ? static_cast<double>(expanded) : 1.0;
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
  state.counters["state_copies_per_state"] =
      static_cast<double>(after.stateCopies - before.stateCopies) / denom;
  state.counters["slot_clones_per_state"] =
      static_cast<double>(after.slotClones - before.slotClones) / denom;
  state.counters["slot_hashes_per_state"] =
      static_cast<double>(after.slotHashes - before.slotHashes) / denom;
}

void BM_ReachableExpansion(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  exploreSerial(*sys, state);
}

void BM_ReachableExpansionTob(benchmark::State& state) {
  auto sys = tob(static_cast<int>(state.range(0)));
  exploreSerial(*sys, state);
}

// Headline workload: the analyzer's actual hot loop. The bivalence search
// (analysis/bivalence.cpp) explores the failure-free region of EVERY
// canonical initialization alpha_0..alpha_n on one shared StateGraph, so
// regions overlap and re-expansion, hash-consing, and transition
// memoization across regions are all exercised exactly as in production.
void regionScan(const ioa::System& sys, benchmark::State& state) {
  const int n = sys.processCount();
  std::size_t states = 0;
  std::int64_t expanded = 0;
  const ioa::StatePerfCounters before = ioa::statePerfSnapshot();
  for (auto _ : state) {
    StateGraph g(sys);
    for (int j = 0; j <= n; ++j) {
      NodeId root = g.intern(analysis::canonicalInitialization(sys, j));
      auto stats = analysis::exploreReachable(g, root, ExplorationPolicy{});
      expanded += static_cast<std::int64_t>(stats.statesDiscovered);
    }
    states = g.size();
  }
  const ioa::StatePerfCounters after = ioa::statePerfSnapshot();
  const double denom = expanded > 0 ? static_cast<double>(expanded) : 1.0;
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
  state.counters["state_copies_per_state"] =
      static_cast<double>(after.stateCopies - before.stateCopies) / denom;
  state.counters["slot_clones_per_state"] =
      static_cast<double>(after.slotClones - before.slotClones) / denom;
  state.counters["slot_hashes_per_state"] =
      static_cast<double>(after.slotHashes - before.slotHashes) / denom;
}

void BM_RegionScanRelay(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  regionScan(*sys, state);
}

void BM_RegionScanTob(benchmark::State& state) {
  auto sys = tob(static_cast<int>(state.range(0)));
  regionScan(*sys, state);
}

// The same headline workload under orbit canonicalization (--symmetry on):
// states/sec now counts canonical representatives, so the interesting
// figure is the raw_per_canonical collapse ratio next to the wall time.
void regionScanSymmetry(const ioa::System& sys, benchmark::State& state) {
  const int n = sys.processCount();
  std::size_t states = 0;
  std::int64_t expanded = 0;
  double rawPerCanonical = 0.0;
  for (auto _ : state) {
    auto pol = analysis::SymmetryPolicy::forSystem(
        sys, analysis::SymmetryMode::On);
    StateGraph g(sys, pol);
    for (int j = 0; j <= n; ++j) {
      NodeId root = g.intern(analysis::canonicalInitialization(sys, j));
      auto stats = analysis::exploreReachable(g, root, ExplorationPolicy{});
      expanded += static_cast<std::int64_t>(stats.statesDiscovered);
    }
    states = g.size();
    if (states > 0) {
      rawPerCanonical = static_cast<double>(pol->statesRaw()) /
                        static_cast<double>(states);
    }
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
  state.counters["raw_per_canonical"] = rawPerCanonical;
}

void BM_RegionScanRelaySymmetry(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  regionScanSymmetry(*sys, state);
}

// The stacked reduction (--symmetry on --por on): ample-set POR over the
// orbit quotient. The headline counter is full_per_reduced -- canonical
// quotient states divided by the states the reduced BFS actually visits,
// i.e. the multiplicative factor POR adds on top of symmetry.
void regionScanSymmetryPor(const ioa::System& sys, benchmark::State& state) {
  const int n = sys.processCount();
  std::size_t states = 0;
  std::size_t symStates = 0;
  std::int64_t expanded = 0;
  for (auto _ : state) {
    {
      auto symPol = analysis::SymmetryPolicy::forSystem(
          sys, analysis::SymmetryMode::On);
      StateGraph gq(sys, symPol);
      for (int j = 0; j <= n; ++j) {
        NodeId root = gq.intern(analysis::canonicalInitialization(sys, j));
        analysis::exploreReachable(gq, root, ExplorationPolicy{});
      }
      symStates = gq.size();
    }
    auto symPol = analysis::SymmetryPolicy::forSystem(
        sys, analysis::SymmetryMode::On);
    auto porPol = analysis::PorPolicy::forSystem(sys, analysis::PorMode::On);
    StateGraph g(sys, symPol, porPol);
    for (int j = 0; j <= n; ++j) {
      NodeId root = g.intern(analysis::canonicalInitialization(sys, j));
      auto stats = analysis::exploreReachable(g, root, ExplorationPolicy{});
      expanded += static_cast<std::int64_t>(stats.statesDiscovered);
    }
    states = g.size();
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
  state.counters["full_per_reduced"] =
      states > 0 ? static_cast<double>(symStates) / static_cast<double>(states)
                 : 0.0;
}

void BM_RegionScanRelayPOR(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  regionScanSymmetryPor(*sys, state);
}

// Memory headline for the flat graph layout: run the region scan, then
// report the graph's own accounting (StateGraph::memoryStats) normalized
// per interned state. bytes_per_state is what compare_bench.py gates, so
// a layout regression (fatter edges, sparser index, lost interning) fails
// CI even when wall-clock throughput hides it.
void BM_BytesPerState(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  const int n = sys->processCount();
  std::size_t states = 0;
  double bytesPerState = 0.0;
  for (auto _ : state) {
    StateGraph g(*sys);
    for (int j = 0; j <= n; ++j) {
      NodeId root = g.intern(analysis::canonicalInitialization(*sys, j));
      analysis::exploreReachable(g, root, ExplorationPolicy{});
    }
    states = g.size();
    const auto ms = g.memoryStats();
    bytesPerState = states > 0
                        ? static_cast<double>(ms.total()) /
                              static_cast<double>(states)
                        : 0.0;
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["bytes_per_state"] = bytesPerState;
}

// Bounded-memory exploration: the relay n=4 region under a 32 KiB edge
// budget (8 resident cold mappings) with deliberately small (256-edge)
// chunks, so the cold tier demotes and evicts continuously. The throughput counter prices the
// paging overhead against the unbounded BM_ReachableExpansion numbers, the
// spill counters keep the cold tier honest in the baseline, and
// rss_delta_bytes is what the budget is supposed to bound.
void BM_BoundedExploreRelay(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  std::int64_t discovered = 0;
  double exploreSecs = 0.0;
  analysis::Pager::Stats spillLast;
  const std::uint64_t rssBefore = analysis::currentRssBytes();
  for (auto _ : state) {
    analysis::SpillConfig spill;
    spill.memoryBudgetBytes = 32 * 1024;
    spill.edgeChunkShift = 8;
    StateGraph g(*sys, nullptr, nullptr, spill);
    NodeId root = g.intern(
        analysis::canonicalInitialization(*sys, sys->processCount() / 2));
    ExplorationPolicy pol;
    pol.memoryBudgetBytes = spill.memoryBudgetBytes;
    const auto t0 = std::chrono::steady_clock::now();
    auto stats = analysis::exploreReachable(g, root, pol);
    exploreSecs +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    discovered += static_cast<std::int64_t>(stats.statesDiscovered);
    spillLast = g.spillStats();
  }
  const std::uint64_t rssAfter = analysis::currentRssBytes();
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(discovered), benchmark::Counter::kIsRate);
  state.counters["spill_chunks_cold"] =
      static_cast<double>(spillLast.chunksCold);
  state.counters["spill_bytes_on_disk"] =
      static_cast<double>(spillLast.bytesOnDisk);
  state.counters["spill_evictions"] =
      static_cast<double>(spillLast.evictions);
  state.counters["rss_delta_bytes"] = static_cast<double>(
      rssAfter > rssBefore ? rssAfter - rssBefore : 0);
}

// The Fig. 3 walk end to end (bivalent init + hook search), the consumer
// of the dense scratch sets: every walk iteration runs two BFS scans and
// a fair-cycle membership probe over the explored region.
void BM_HookSearchDense(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  std::size_t states = 0;
  for (auto _ : state) {
    StateGraph g(*sys);
    ValenceAnalyzer va(g);
    auto biv = analysis::findBivalentInitialization(g, va);
    if (!biv.bivalent) {
      state.SkipWithError("no bivalent initialization");
      return;
    }
    auto outcome = analysis::findHook(g, va, biv.bivalent->node);
    benchmark::DoNotOptimize(outcome.hook.has_value());
    states = g.size();
  }
  state.counters["states"] = static_cast<double>(states);
}

void BM_ValenceFullRegion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto sys = relay(n, 0);
  std::size_t states = 0;
  for (auto _ : state) {
    StateGraph g(*sys);
    ValenceAnalyzer va(g);
    NodeId root = g.intern(analysis::canonicalInitialization(*sys, n / 2));
    va.explore(root);
    benchmark::DoNotOptimize(va.valence(root));
    states = g.size();
  }
  state.counters["states"] = static_cast<double>(states);
}

}  // namespace

BENCHMARK(BM_StateHash)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_StateHashColdCache)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_StateClone)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_ReachableExpansion)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReachableExpansionTob)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionScanRelay)
    ->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionScanTob)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BytesPerState)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HookSearchDense)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionScanRelaySymmetry)
    ->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionScanRelayPOR)
    ->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ValenceFullRegion)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoundedExploreRelay)
    ->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

int main(int argc, char** argv) {
  return boosting::benchjson::runBenchmarks(argc, argv,
                                            "BENCH_state_explore.json");
}
