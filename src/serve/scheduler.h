// TickScheduler: the cooperative job scheduler of the analysis service,
// modeled on the entt process/scheduler pattern (SNIPPETS.md): the owner
// drives a tick() loop on ONE thread, jobs advance between ticks, and all
// lifecycle decisions -- dispatch order, completion callbacks, state
// transitions -- happen inside tick() on the calling thread, never on a
// worker.
//
// There is no timer. A worker writes a byte to the wake channel (a
// self-pipe, wakeFd()) after it publishes its outcome; the driving thread
// polls wakeFd(), calls clearWake() and then tick(). Clearing before the
// tick means an event that lands during a tick wakes the next one.
//
// Lifecycle (the entt states mapped onto exploration jobs):
//
//                 pause                resume
//   Queued ----------------> Queued(held) ------> Queued
//     | dispatch (tick)
//     v
//   Running --checkpoint()--> blocked-at-checkpoint --resume--> Running
//     | body returns          | requestCancel()
//     v                       v
//   Done / Failed           Cancelled
//
// A job body runs on its own worker thread (bounded by
// Config::maxConcurrent) but must poll JobControl::checkpoint() at
// cooperative points. For analysis jobs that point is the exploration
// engines' per-expansion hook (ExplorationPolicy::expansionHook), so
// cancellation drains through the engines' existing abort path -- the
// StateGraph is guaranteed consistent after a hook throw (checkConsistent;
// see analysis/state_graph.h) -- and pause blocks the job at a
// state-graph-consistent boundary.
//
// Determinism: dispatch picks the highest priority first, FIFO within a
// priority (stable by submission order). Verdicts never depend on
// scheduling -- every job computes a pure function of its spec -- so
// pause/resume storms and concurrency changes are observationally inert
// (asserted by tests/serve/serve_scheduler_test.cpp).
//
// Thread-safety: submit/cancel/pause/resume/tick/drain may be called from
// ONE driving thread (the server loop); wake() from any thread. JobControl
// is shared with the worker and is internally synchronized.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace boosting::serve {

// Thrown out of JobControl::checkpoint() when cancellation was requested.
// Deliberately an exception: it rides the exploration engines' worker-abort
// seam, which rethrows the first hook exception after draining cleanly.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("job cancelled") {}
};

// Shared control block between the scheduler and a running job body.
class JobControl {
 public:
  enum class Want : std::uint8_t { Run, Pause, Cancel };

  void requestPause();
  void requestResume();
  void requestCancel();
  Want want() const { return want_.load(std::memory_order_acquire); }
  bool cancelRequested() const { return want() == Want::Cancel; }

  // Cooperative checkpoint: one relaxed load on the fast path; blocks
  // while a pause is requested; throws JobCancelled on cancellation
  // (including a cancellation that arrives while paused).
  void checkpoint();

 private:
  std::atomic<Want> want_{Want::Run};
  std::mutex m_;
  std::condition_variable cv_;
};

enum class JobState : std::uint8_t {
  Queued,
  Running,
  Done,
  Failed,
  Cancelled,
};

const char* jobStateName(JobState s);

struct JobSnapshot {
  JobState state = JobState::Queued;
  bool paused = false;  // held in queue, or pause requested while running
};

class TickScheduler {
 public:
  struct Config {
    unsigned maxConcurrent = 1;  // worker-thread bound (>= 1)
  };

  using Body = std::function<void(JobControl&)>;
  // Fired from tick(), on the driving thread, exactly once per job.
  // `error` is what() of a failing body (empty otherwise).
  using OnFinish = std::function<void(std::uint64_t id, JobState final,
                                      const std::string& error)>;

  explicit TickScheduler(Config cfg);
  // Cancels everything still live and joins all workers.
  ~TickScheduler();
  TickScheduler(const TickScheduler&) = delete;
  TickScheduler& operator=(const TickScheduler&) = delete;

  // Enqueue a job. Returns its scheduler id. Nothing runs until tick().
  std::uint64_t submit(int priority, Body body, OnFinish onFinish = nullptr);

  // Request cancellation: a queued job finalizes Cancelled at the next
  // tick without ever running; a running job is cancelled at its next
  // checkpoint. False when the id is unknown or already finished.
  bool cancel(std::uint64_t id);
  // Hold a queued job out of dispatch / block a running job at its next
  // checkpoint. False when unknown or finished.
  bool pause(std::uint64_t id);
  bool resume(std::uint64_t id);

  // One cooperative tick: (1) reap workers whose body returned -- join and
  // fire their OnFinish here; (2) finalize queued-and-cancelled jobs;
  // (3) dispatch runnable queued jobs in (priority desc, submission order)
  // while running < maxConcurrent. Reaped and finalized jobs are
  // forgotten. Returns the number of still-live (queued or running) jobs.
  std::size_t tick();

  // tick() until no job is live, blocking on wakeFd() between ticks.
  void drain();

  // Readable while a finished worker or a wake() is not yet cleared.
  int wakeFd() const { return wakeRead_; }
  // Make wakeFd() readable. Safe from any thread; never blocks.
  void wake() const;
  // Consume every pending wakeup without blocking.
  void clearWake() const;
  // Block until wakeFd() is readable, then clearWake().
  void awaitWake() const;

  // Request cancellation of every live job (finalization still happens in
  // tick()).
  void cancelAll();

  std::size_t queuedCount() const;
  std::size_t runningCount() const;
  // Snapshot of one live job; false when the id is unknown or finished.
  bool snapshot(std::uint64_t id, JobSnapshot* out) const;

 private:
  struct Job {
    int priority = 0;
    JobState state = JobState::Queued;
    bool paused = false;
    std::shared_ptr<JobControl> control;
    Body body;
    OnFinish onFinish;
    std::thread worker;
    // Worker -> tick handoff: outcome/error are written by the worker
    // before `finished` is released; tick() reads them after acquiring it.
    std::atomic<bool> finished{false};
    JobState outcome = JobState::Done;
    std::string error;
  };

  void dispatchLocked(Job& job);

  Config cfg_;
  mutable std::mutex m_;
  std::uint64_t nextId_ = 1;  // ids count submissions: the FIFO order
  std::size_t running_ = 0;
  // Queued and running jobs, by id.
  std::map<std::uint64_t, Job> jobs_;
  int wakeRead_ = -1;
  int wakeWrite_ = -1;
};

}  // namespace boosting::serve
