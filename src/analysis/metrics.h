// Flush helpers: copy the engine-local tallies (StateGraph::Stats,
// TransitionCache::Stats, ioa::StatePerfCounters) into an obs::Registry
// under the stable dotted names documented in DESIGN.md. The engines
// themselves never hold a registry for these -- they maintain plain
// counters on the hot path and the owning driver (the adversary pipeline,
// the CLI, a test) flushes once at a phase boundary, which is what keeps
// the disabled-observability overhead near zero.
#pragma once

#include "analysis/state_graph.h"
#include "ioa/system.h"

namespace boosting::obs {
class Registry;
}  // namespace boosting::obs

namespace boosting::analysis {

// graph.states_discovered / graph.dedup_hits / graph.edges_discovered /
// graph.expansions, the memory footprint gauges graph.bytes_states /
// graph.bytes_edges / graph.bytes_index + process.peak_rss_bytes, plus the
// graph-owned TransitionCache under cache.*.
void flushGraphMetrics(obs::Registry* reg, const StateGraph& g);

// Process peak resident set size in bytes (Linux VmHWM; 0 where
// unavailable). Exposed for tests and benches. CAUTION: VmHWM is a
// process-lifetime high-water mark -- it is monotone and never reflects
// memory released between phases. Per-phase costs must be measured as
// currentRssBytes() deltas around the phase instead (the
// process.rss_delta_bytes metric; see DESIGN.md "Out-of-core exploration").
std::uint64_t peakRssBytes();

// Process resident set size right now (Linux VmRSS; 0 where unavailable).
// Sampled before/after a phase to derive a delta that, unlike VmHWM,
// responds to memory the phase actually released or avoided allocating.
std::uint64_t currentRssBytes();

// cache.<prefix>enabled_lookups|hits|misses and apply_* for an arbitrary
// cache (the graph flush uses an empty prefix).
void flushTransitionCacheMetrics(obs::Registry* reg,
                                 const TransitionCache::Stats& stats,
                                 const char* prefix = "");

// state.copies / state.slot_clones / state.slot_hashes from a delta of
// ioa::statePerfSnapshot() taken around the measured phase.
void flushStatePerfDelta(obs::Registry* reg,
                         const ioa::StatePerfCounters& before,
                         const ioa::StatePerfCounters& after);

}  // namespace boosting::analysis
