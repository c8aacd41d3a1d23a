// AnalysisService: the transport-independent core of boosting_served.
//
// It owns the TickScheduler and the ServiceContextPool and turns a JobSpec
// (one candidate analysis, the same knobs as the boosting_analyze CLI)
// into a JobResult whose verdict text is BYTE-IDENTICAL to what the CLI
// prints for the same spec -- the service runs the identical
// analyzeConsensusCandidate pipeline over the identical candidate factory
// (serve/candidates.h); only the wrapping differs.
//
// Threading model: all public methods plus every client callback run on
// ONE driving thread (the server loop calls tick() whenever its poll()
// returns, and wakeFd() makes it return when a job has news). Job
// bodies run on scheduler workers; everything they touch is either private
// to the job, an exclusively-leased ServiceContext, or an internally
// synchronized sink (obs::Registry counters, obs::TraceWriter events, the
// service's progress queue).
//
// Cancellation drains through the exploration engines' abort seam
// (ExplorationPolicy::expansionHook throwing JobCancelled), so a cancelled
// job leaves its leased context's memo CONSISTENT -- the hook rethrow path
// is checkConsistent-guaranteed (analysis/state_graph.h) -- and the
// context stays safely reusable by later jobs. The gamma/simulation phase
// has no hook; cancellation there takes effect at the next exploration
// checkpoint (the phase is bounded by gammaMaxSteps regardless).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/parallel_explorer.h"
#include "obs/registry.h"
#include "serve/cache.h"
#include "serve/scheduler.h"

namespace boosting::serve {

// One analysis request. Field semantics and valid ranges mirror the
// boosting_analyze flags one-to-one (see submit() for the checks).
struct JobSpec {
  std::string id;  // client-chosen; unique among LIVE jobs
  std::string candidate = "relay";
  int n = 2;
  int f = 0;
  int claim = -1;  // default: f + 1
  analysis::SymmetryMode symmetry = analysis::SymmetryMode::Auto;
  analysis::PorMode por = analysis::PorMode::Auto;
  int priority = 0;         // higher dispatches first
  bool wantWitness = false; // include the rendered witness execution
  bool progress = false;    // stream serve.job.progress events
};

// How the job's exploration state was sourced.
enum class CacheOutcome : std::uint8_t {
  Cold,    // first lease of a fresh context (or caching disabled)
  Warm,    // leased a context that already served a job
  Bypass,  // context was busy; ran uncached on a private System
};

const char* cacheOutcomeName(CacheOutcome c);

struct JobResult {
  std::string id;
  JobState state = JobState::Done;
  std::string error;  // set when state == Failed

  // Verdict payload -- byte-identical to the CLI for the same spec.
  std::string summary;          // AdversaryReport::summary()
  std::size_t states = 0;       // statesExplored
  std::size_t witnessActions = 0;
  std::string witness;          // rendered execution (when wantWitness)
  int exitCode = 0;             // CLI convention: 1 iff Inconclusive

  CacheOutcome cache = CacheOutcome::Cold;
  double wallMs = 0.0;
};

class AnalysisService {
 public:
  struct Config {
    unsigned maxConcurrent = 1;   // scheduler worker bound
    std::size_t cacheContexts = 8;  // ServiceContextPool soft cap (0 = off)
    obs::Registry* metrics = nullptr;  // serve.* counters + engine flushes
  };

  using OnResult = std::function<void(const JobResult&)>;
  using OnProgress =
      std::function<void(const std::string& id, std::uint64_t states)>;

  explicit AnalysisService(Config cfg);
  ~AnalysisService();

  // Validate and enqueue. Returns an error message (mirroring the CLI's
  // flag diagnostics) on rejection, nullopt on acceptance. onResult fires
  // exactly once, from tick(), on the driving thread.
  std::optional<std::string> submit(const JobSpec& spec, OnResult onResult,
                                    OnProgress onProgress = nullptr);

  // By client job id; false when unknown or already finished.
  bool cancel(const std::string& id);
  bool pause(const std::string& id);
  bool resume(const std::string& id);

  // One scheduler tick + progress/result delivery. Returns live job count.
  std::size_t tick();
  // tick() until idle, blocking on wakeFd() between ticks.
  void drain();
  // Readable when a job finished or queued progress: clearWake(), tick().
  int wakeFd() const { return sched_.wakeFd(); }
  void clearWake() const { sched_.clearWake(); }
  void cancelAll();

  struct JobStatus {
    std::string id;
    std::string candidate;
    JobState state = JobState::Queued;
    bool paused = false;
    int priority = 0;
  };
  // Live jobs only (finished jobs are reported once via onResult and then
  // forgotten, so client ids become reusable).
  std::vector<JobStatus> liveJobs() const;

  ServiceContextPool::Stats cacheStats() const { return pool_.stats(); }
  std::size_t cacheSize() const { return pool_.size(); }
  std::uint64_t submitted() const { return submitted_; }

 private:
  struct JobRecord {
    JobSpec spec;
    std::uint64_t schedId = 0;
    OnResult onResult;
    OnProgress onProgress;
    JobResult result;  // payload fields written by the worker
  };

  void runJob(JobRecord& rec, JobControl& ctl);
  void finishJob(std::uint64_t schedId, JobState final,
                 const std::string& error);
  void flushCacheCounters();

  Config cfg_;
  ServiceContextPool pool_;
  TickScheduler sched_;
  std::uint64_t submitted_ = 0;
  // Driving-thread state: records of live jobs and the client-id index.
  std::map<std::uint64_t, std::unique_ptr<JobRecord>> records_;
  std::map<std::string, std::uint64_t> byClientId_;
  // Worker -> tick progress handoff.
  std::mutex progressM_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> progressQ_;
  ServiceContextPool::Stats flushedCache_;
};

}  // namespace boosting::serve
