// Cross-job substructure cache of the analysis service.
//
// Jobs that share a service type -- same (candidate, n, f) and the same
// reduction modes -- rebuild exactly the same ioa::System, re-intern the
// same actions, and re-derive the same transitions. A ServiceContext keeps
// that substructure alive for the process lifetime: the built System plus
// an analysis::TransitionCache (slot canon table, transition memos, action
// pool, ample decisions) threaded into AdversaryConfig::memo so repeat
// jobs start warm.
//
// Safety argument (details in analysis/transition_cache.h and DESIGN.md
// "Analysis service"): the memo is only sound for the System object it was
// built against, and it is NOT thread-safe. The pool therefore hands out
// an EXCLUSIVE lease per context -- at most one job touches a context at a
// time; a second job arriving for a leased key runs cold on a private
// System instead of blocking ("bypass"). Lease handoff happens under the
// pool mutex, which gives the happens-before edge between consecutive
// lessees.
//
// The reduction modes are part of the key even though SymmetryPolicy /
// PorPolicy are rebuilt per job (they carry per-run statistics): keying on
// them keeps one context's job stream homogeneous, so observed hit/reuse
// counters line up with service types one-to-one.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "analysis/por.h"
#include "analysis/symmetry.h"
#include "analysis/transition_cache.h"
#include "ioa/system.h"

namespace boosting::serve {

// Identity of a service type: jobs with equal keys may share a context.
struct ServiceKey {
  std::string candidate;
  int n = 0;
  int f = 0;
  analysis::SymmetryMode symmetry = analysis::SymmetryMode::Auto;
  analysis::PorMode por = analysis::PorMode::Auto;

  bool operator==(const ServiceKey& o) const {
    return candidate == o.candidate && n == o.n && f == o.f &&
           symmetry == o.symmetry && por == o.por;
  }
  std::string str() const;
};

struct ServiceKeyHash {
  std::size_t operator()(const ServiceKey& k) const;
};

// One cached service type: the built System and the warm memo bound to it.
struct ServiceContext {
  ServiceKey key;
  std::unique_ptr<ioa::System> system;
  std::shared_ptr<analysis::TransitionCache> memo;
  std::uint64_t jobsServed = 0;  // completed leases (warm after the first)
};

// Process-lifetime pool of ServiceContexts with exclusive leases and LRU
// eviction of idle entries past the soft cap. Thread-safe.
class ServiceContextPool {
 public:
  struct Stats {
    std::uint64_t builds = 0;     // cold context constructions
    std::uint64_t reuses = 0;     // leases of an already-built context
    std::uint64_t bypasses = 0;   // key was leased-busy; job ran uncached
    std::uint64_t evictions = 0;  // idle contexts dropped over the cap
  };

  // RAII exclusive lease. Releases back to the pool on destruction.
  class Lease {
   public:
    Lease(Lease&& o) noexcept;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    ~Lease();

    ioa::System& system() { return *ctx_->system; }
    const std::shared_ptr<analysis::TransitionCache>& memo() const {
      return ctx_->memo;
    }
    // True when this context has already served at least one job (the
    // memo is warm).
    bool warm() const { return ctx_->jobsServed > 0; }

   private:
    friend class ServiceContextPool;
    Lease(ServiceContextPool* pool, ServiceContext* ctx)
        : pool_(pool), ctx_(ctx) {}
    ServiceContextPool* pool_;
    ServiceContext* ctx_;
  };

  // maxContexts == 0 disables caching entirely (acquire always returns
  // nullopt without building anything; callers run cold).
  explicit ServiceContextPool(std::size_t maxContexts)
      : maxContexts_(maxContexts) {}

  // Acquire an exclusive lease on the context for `key`, building it on
  // first use. Returns nullopt when caching is disabled, when the context
  // is currently leased to another job (counted as a bypass -- the caller
  // must run cold on a private System), or when the candidate build fails
  // (*buildError set).
  std::optional<Lease> acquire(const ServiceKey& key, std::string* buildError);

  Stats stats() const;
  std::size_t size() const;

 private:
  friend class Lease;
  void release(ServiceContext* ctx);
  void evictIdleOverCapLocked();

  struct Entry {
    std::unique_ptr<ServiceContext> ctx;
    bool leased = false;
    // Position in lru_ (most-recent at front); valid while !leased.
    std::list<ServiceKey>::iterator lruPos;
    bool inLru = false;
  };

  const std::size_t maxContexts_;
  mutable std::mutex m_;
  std::unordered_map<ServiceKey, Entry, ServiceKeyHash> entries_;
  std::list<ServiceKey> lru_;
  Stats stats_;
};

}  // namespace boosting::serve
