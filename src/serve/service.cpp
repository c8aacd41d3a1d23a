#include "serve/service.h"

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "analysis/adversary.h"
#include "obs/trace.h"
#include "serve/candidates.h"
#include "sim/trace_io.h"

namespace boosting::serve {

namespace {

// Progress cadence: one queued event / trace line per this many expansions.
// Coarse enough to be free next to an expansion, fine enough that a relay
// n=5 job reports twice.
constexpr std::uint64_t kProgressStride = 2048;

std::string fmt(const char* f, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

}  // namespace

const char* cacheOutcomeName(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::Cold: return "cold";
    case CacheOutcome::Warm: return "warm";
    case CacheOutcome::Bypass: return "bypass";
  }
  return "?";
}

AnalysisService::AnalysisService(Config cfg)
    : cfg_(cfg),
      pool_(cfg.cacheContexts),
      sched_(TickScheduler::Config{cfg.maxConcurrent == 0
                                       ? 1u
                                       : cfg.maxConcurrent}) {}

AnalysisService::~AnalysisService() {
  // Workers reference service members (progress queue, records); make sure
  // none survive into member destruction.
  cancelAll();
  drain();
}

std::optional<std::string> AnalysisService::submit(const JobSpec& spec,
                                                   OnResult onResult,
                                                   OnProgress onProgress) {
  // Validation mirrors the boosting_analyze flag checks, field for field,
  // so a spec the CLI would reject is rejected here with the same shape of
  // diagnostic (field name first).
  if (spec.id.empty()) return "id: required";
  if (byClientId_.count(spec.id)) {
    return "id: '" + spec.id + "' is already a live job";
  }
  if (!isKnownCandidate(spec.candidate)) {
    return "candidate: unknown candidate '" + spec.candidate + "'";
  }
  if (spec.n < 2 || spec.n > 20) {
    return fmt("n: value %d out of range [2, 20]", spec.n);
  }
  if (spec.f < 0 || spec.f > 19) {
    return fmt("f: value %d out of range [0, 19]", spec.f);
  }
  if (spec.claim >= 0 && (spec.claim < 1 || spec.claim > 19)) {
    return fmt("claim: value %d out of range [1, 19]", spec.claim);
  }
  if (spec.f >= spec.n) {
    return fmt("f: service resilience %d must be smaller than n %d", spec.f,
               spec.n);
  }
  const int claim = spec.claim < 0 ? spec.f + 1 : spec.claim;
  if (claim >= spec.n) {
    return fmt("claim: claimed failures %d must be smaller than n %d (the "
               "theorems assume f+1 <= n-1)",
               claim, spec.n);
  }

  auto rec = std::make_unique<JobRecord>();
  rec->spec = spec;
  rec->spec.claim = claim;
  rec->onResult = std::move(onResult);
  rec->onProgress = std::move(onProgress);
  JobRecord* raw = rec.get();
  const std::uint64_t schedId = sched_.submit(
      spec.priority,
      [this, raw](JobControl& ctl) { runJob(*raw, ctl); },
      [this](std::uint64_t id, JobState final, const std::string& error) {
        finishJob(id, final, error);
      });
  rec->schedId = schedId;
  records_.emplace(schedId, std::move(rec));
  byClientId_.emplace(spec.id, schedId);
  ++submitted_;
  if (cfg_.metrics) {
    cfg_.metrics->add("serve.jobs.submitted");
    if (auto* tw = cfg_.metrics->trace()) {
      tw->event("serve.job.submit",
                {{"id", spec.id}, {"candidate", spec.candidate},
                 {"n", spec.n}, {"f", spec.f}, {"claim", claim},
                 {"priority", spec.priority}});
    }
  }
  return std::nullopt;
}

void AnalysisService::runJob(JobRecord& rec, JobControl& ctl) {
  const JobSpec& spec = rec.spec;
  obs::TraceWriter* tw = cfg_.metrics ? cfg_.metrics->trace() : nullptr;
  const auto start = std::chrono::steady_clock::now();
  // Record the wall time even when the body unwinds (cancel / failure).
  struct WallGuard {
    const std::chrono::steady_clock::time_point& start;
    double* out;
    ~WallGuard() {
      *out = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    }
  } wallGuard{start, &rec.result.wallMs};

  if (tw) tw->event("serve.job.start", {{"id", spec.id}});

  // Source the exploration substructure: an exclusive lease on the cached
  // context when available, a private cold build otherwise.
  const ServiceKey key{spec.candidate, spec.n, spec.f, spec.symmetry,
                       spec.por};
  std::string buildError;
  std::optional<ServiceContextPool::Lease> lease =
      pool_.acquire(key, &buildError);
  if (!lease && !buildError.empty()) throw std::runtime_error(buildError);
  std::unique_ptr<ioa::System> privateSys;
  ioa::System* sys = nullptr;
  std::shared_ptr<analysis::TransitionCache> memo;
  if (lease) {
    sys = &lease->system();
    memo = lease->memo();
    rec.result.cache = lease->warm() ? CacheOutcome::Warm : CacheOutcome::Cold;
  } else {
    privateSys =
        buildCandidateSystem(spec.candidate, spec.n, spec.f, &buildError);
    if (!privateSys) throw std::runtime_error(buildError);
    sys = privateSys.get();
    rec.result.cache = cfg_.cacheContexts == 0 ? CacheOutcome::Cold
                                               : CacheOutcome::Bypass;
  }

  analysis::AdversaryConfig acfg;
  acfg.claimedFailures = spec.claim;
  acfg.exemptFailureAware = true;
  acfg.exploration.metrics = cfg_.metrics;
  acfg.symmetry = spec.symmetry;
  acfg.por = spec.por;
  acfg.memo = memo;
  // Cooperative seam: cancellation/pause ride the engines' per-expansion
  // hook; progress is rate-limited and handed to the driving thread via
  // the queue (client callbacks never fire on a worker). The counter is
  // ours because the hook's argument restarts per exploration phase.
  std::atomic<std::uint64_t> expansions{0};
  const std::uint64_t schedId = rec.schedId;
  const bool wantProgress = spec.progress;
  acfg.exploration.expansionHook = [this, &ctl, &expansions, schedId,
                                    wantProgress, tw,
                                    &spec](std::size_t) {
    ctl.checkpoint();
    const std::uint64_t c =
        expansions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (wantProgress && c % kProgressStride == 0) {
      {
        std::lock_guard<std::mutex> lock(progressM_);
        progressQ_.emplace_back(schedId, c);
      }
      sched_.wake();
      if (tw) {
        tw->event("serve.job.progress", {{"id", spec.id}, {"expansions", c}});
      }
    }
  };

  auto report = analysis::analyzeConsensusCandidate(*sys, acfg);

  rec.result.summary = report.summary();
  rec.result.states = report.statesExplored;
  rec.result.witnessActions = report.witness.size();
  if (spec.wantWitness && !report.witness.empty()) {
    rec.result.witness = sim::renderExecution(report.witness);
  }
  rec.result.exitCode =
      report.verdict == analysis::AdversaryReport::Verdict::Inconclusive ? 1
                                                                         : 0;
}

void AnalysisService::finishJob(std::uint64_t schedId, JobState final,
                                const std::string& error) {
  auto it = records_.find(schedId);
  if (it == records_.end()) return;
  JobRecord& rec = *it->second;
  rec.result.id = rec.spec.id;
  rec.result.state = final;
  rec.result.error = error;
  if (cfg_.metrics) {
    switch (final) {
      case JobState::Done:
        cfg_.metrics->add("serve.jobs.completed");
        break;
      case JobState::Failed:
        cfg_.metrics->add("serve.jobs.failed");
        break;
      case JobState::Cancelled:
        cfg_.metrics->add("serve.jobs.cancelled");
        break;
      default:
        break;
    }
    if (auto* tw = cfg_.metrics->trace()) {
      tw->event("serve.job.finish",
                {{"id", rec.spec.id}, {"state", jobStateName(final)},
                 {"cache", cacheOutcomeName(rec.result.cache)},
                 {"wall_ms", rec.result.wallMs},
                 {"states", static_cast<std::uint64_t>(rec.result.states)}});
    }
  }
  OnResult cb = std::move(rec.onResult);
  JobResult result = std::move(rec.result);
  byClientId_.erase(rec.spec.id);
  records_.erase(it);
  if (cb) cb(result);
}

bool AnalysisService::cancel(const std::string& id) {
  auto it = byClientId_.find(id);
  return it != byClientId_.end() && sched_.cancel(it->second);
}

bool AnalysisService::pause(const std::string& id) {
  auto it = byClientId_.find(id);
  return it != byClientId_.end() && sched_.pause(it->second);
}

bool AnalysisService::resume(const std::string& id) {
  auto it = byClientId_.find(id);
  return it != byClientId_.end() && sched_.resume(it->second);
}

std::size_t AnalysisService::tick() {
  if (cfg_.metrics) cfg_.metrics->add("serve.ticks");
  // Deliver progress before reaping so a job's progress precedes its
  // result; entries for already-finished jobs drop harmlessly.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> q;
  {
    std::lock_guard<std::mutex> lock(progressM_);
    q.swap(progressQ_);
  }
  for (const auto& [schedId, count] : q) {
    auto it = records_.find(schedId);
    if (it != records_.end() && it->second->onProgress) {
      it->second->onProgress(it->second->spec.id, count);
    }
  }
  const std::size_t live = sched_.tick();
  flushCacheCounters();
  return live;
}

void AnalysisService::drain() {
  while (tick() != 0) sched_.awaitWake();
}

void AnalysisService::cancelAll() { sched_.cancelAll(); }

std::vector<AnalysisService::JobStatus> AnalysisService::liveJobs() const {
  std::vector<JobStatus> out;
  for (const auto& [schedId, rec] : records_) {
    JobSnapshot snap;
    if (!sched_.snapshot(schedId, &snap)) continue;  // reaped this tick
    out.push_back(JobStatus{rec->spec.id, rec->spec.candidate, snap.state,
                            snap.paused, rec->spec.priority});
  }
  return out;
}

void AnalysisService::flushCacheCounters() {
  if (!cfg_.metrics) return;
  const ServiceContextPool::Stats s = pool_.stats();
  cfg_.metrics->add("serve.cache.context_builds",
                    s.builds - flushedCache_.builds);
  cfg_.metrics->add("serve.cache.context_reuses",
                    s.reuses - flushedCache_.reuses);
  cfg_.metrics->add("serve.cache.bypasses",
                    s.bypasses - flushedCache_.bypasses);
  cfg_.metrics->add("serve.cache.evictions",
                    s.evictions - flushedCache_.evictions);
  flushedCache_ = s;
}

}  // namespace boosting::serve
