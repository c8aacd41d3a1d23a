// Observability registry: monotonic counters, accumulating wall-clock
// timers, derived (floating-point) metrics, and the hookup points for
// structured trace events and progress reporting.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   * Near-zero cost when disabled. Engines thread a `Registry*` that is
//     nullptr by default; every instrumentation site is either a plain
//     local tally that exists anyway (flushed to the registry only at
//     phase boundaries) or guarded by a single pointer test. No atomics,
//     no clock reads, no string formatting on the hot path unless a
//     registry is attached.
//
//   * Flush-based, not event-based, for counters. The exploration engines
//     already keep local stats structs (StateGraph::Stats,
//     TransitionCache::Stats, ExploreStats); the registry is the
//     rendezvous where those tallies land under stable dotted names
//     ("graph.states_discovered", "cache.enabled_hits", ...) when a phase
//     completes. add() is therefore called a handful of times per run, so
//     a mutex-protected map is plenty.
//
//   * Machine-readable output. writeMetricsJson() emits the flat
//     name/value schema of docs/metrics_schema.json, following the same
//     conventions as bench/bench_json.h so CLI metrics land in the same
//     trajectory format as the BENCH_*.json artifacts.
//
// Thread-safety: add/maxOf/addTime/derive and the snapshot accessors are
// mutex-protected and callable from any thread. setTrace/setProgress must
// be called before engines run (the sinks themselves are internally
// thread-safe; the pointers are not re-settable concurrently).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace boosting::obs {

class TraceWriter;

class Registry {
 public:
  struct TimerStat {
    std::uint64_t wallNs = 0;  // accumulated wall time
    std::uint64_t count = 0;   // number of scopes that reported
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Monotonic counter (created on demand).
  void add(std::string_view name, std::uint64_t delta = 1);
  // High-water mark: value(name) becomes max(current, value).
  void maxOf(std::string_view name, std::uint64_t value);
  // Accumulate one timed scope into a named timer.
  void addTime(std::string_view name, std::uint64_t wallNs);
  // Derived floating-point metric (rates, ratios); last write wins.
  void derive(std::string_view name, double value);

  std::uint64_t value(std::string_view name) const;
  TimerStat timer(std::string_view name) const;

  // Sorted snapshots for export.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, TimerStat>> timers() const;
  std::vector<std::pair<std::string, double>> derived() const;

  // Structured trace sink (JSON-lines, see obs/trace.h). Null when tracing
  // is disabled; components test the pointer before building events.
  void setTrace(std::shared_ptr<TraceWriter> trace) {
    trace_ = std::move(trace);
  }
  TraceWriter* trace() const { return trace_.get(); }

  // Progress sink: engines call progress(label, value) at coarse intervals
  // (per region, per few-hundred expansions); the sink decides how/whether
  // to display it (see obs/progress.h for the stderr ticker). Must be
  // installed before engines run; may be invoked from worker threads.
  using ProgressFn =
      std::function<void(std::string_view label, std::uint64_t value)>;
  void setProgress(ProgressFn fn) { progress_ = std::move(fn); }
  void progress(std::string_view label, std::uint64_t value) const {
    if (progress_) progress_(label, value);
  }

  // Dump all counters/timers/derived metrics as the flat JSON object of
  // docs/metrics_schema.json. Returns false (with a message on stderr) if
  // the file cannot be written.
  bool writeMetricsJson(const std::string& path, std::string_view tool) const;

 private:
  mutable std::mutex m_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, TimerStat, std::less<>> timers_;
  std::map<std::string, double, std::less<>> derived_;
  std::shared_ptr<TraceWriter> trace_;
  ProgressFn progress_;
};

// RAII wall-clock scope accumulating into registry timer `name` (which must
// outlive the timer -- string literals in practice). A null registry makes
// construction and destruction free: no clock is read.
class ScopedTimer {
 public:
  ScopedTimer(Registry* reg, std::string_view name) : reg_(reg), name_(name) {
    if (reg_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!reg_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    reg_->addTime(name_, static_cast<std::uint64_t>(ns));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Registry* reg_;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace boosting::obs
