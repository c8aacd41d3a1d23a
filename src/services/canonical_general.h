// CanonicalGeneralService: the canonical f-resilient general service of
// Section 6.1 (Fig. 8), which -- via the paper's own embeddings -- also
// executes canonical failure-oblivious services (Fig. 4) and canonical
// atomic objects (Fig. 1).
//
// State (per Fig. 1/4): the current value `val`, two FIFO buffers per
// endpoint (inv-buffer(i), resp-buffer(i)), and the set `failed` of failed
// endpoints. Tasks (Section 2.2.3): for every endpoint i in J an i-perform
// task {perform_i, dummy_perform_i} and an i-output task
// {b_i, dummy_output_i}; for every global task g a g-compute task
// {compute_g, dummy_compute_g}.
//
// Resilience is encoded exactly as in the paper: the dummy actions of the
// per-endpoint tasks become enabled once `i in failed` or `|failed| > f`,
// and the dummy action of a compute task once `|failed| > f` or every
// endpoint has failed. Fairness then permits -- but does not force -- the
// service to go silent. The paper's canonical objects resolve that choice
// nondeterministically; under the deterministic restriction of Section 3.1
// this library resolves it with an explicit DummyPolicy:
//
//   PreferReal  -- a benign scheduler: the service keeps working as long as
//                  real steps exist (used when running correct protocols);
//   PreferDummy -- the adversary: the service goes silent the moment the
//                  resilience bound is exceeded (used by the impossibility
//                  engine to construct the executions of Lemmas 6 and 7).
//
// In failure-free executions the two policies coincide (no dummy action is
// ever enabled), so the valence analysis of Section 3 is unaffected.
#pragma once

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "ioa/automaton.h"
#include "ioa/system.h"
#include "types/service_type.h"

namespace boosting::services {

enum class DummyPolicy { PreferReal, PreferDummy };

// The per-endpoint FIFO buffers of a ServiceState: one endpoint-sorted flat
// table of queues. Every reachable configuration holds its service states,
// so per-endpoint container overhead multiplies by the state count: copying
// a table is one allocation, and an empty queue allocates nothing (an empty
// deque allocates over 512 bytes). Exposes the subset of the std::map
// interface the engine uses; iteration is in endpoint order.
class EndpointQueues {
 public:
  using Queue = std::vector<util::Value>;
  using Entry = std::pair<int, Queue>;
  using iterator = std::vector<Entry>::iterator;
  using const_iterator = std::vector<Entry>::const_iterator;

  // The queue of endpoint i, inserted empty in endpoint order if absent.
  Queue& operator[](int i);
  // Checked lookup; throws std::out_of_range for an absent endpoint.
  Queue& at(int i);
  const Queue& at(int i) const;
  iterator find(int i);
  const_iterator find(int i) const;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  bool operator==(const EndpointQueues&) const = default;

 private:
  std::vector<Entry> entries_;
};

class ServiceState final : public ioa::AutomatonState {
 public:
  util::Value val;
  EndpointQueues invBuf;
  EndpointQueues respBuf;
  std::set<int> failed;

  std::unique_ptr<ioa::AutomatonState> clone() const override;
  std::size_t hash() const override;
  bool equals(const ioa::AutomatonState& other) const override;
  std::string str() const override;
};

class CanonicalGeneralService : public ioa::Automaton {
 public:
  struct Options {
    DummyPolicy policy = DummyPolicy::PreferReal;
    // When set, a compute/perform response is not appended if it equals the
    // current tail of the target response buffer. This keeps the reachable
    // state space of flooding services (failure detectors, whose compute
    // tasks are always enabled) finite for the analysis engine; documented
    // as a substitution in DESIGN.md. Off by default.
    bool coalesceResponses = false;
    // Reported in ServiceMeta; the similarity relations of Theorem 10
    // ignore failure-aware services, so the flag must be accurate.
    bool failureAware = true;
    bool isRegister = false;
    // Declared to the partial-order reduction (ioa::Automaton::TaskStructure):
    // every delta1 response goes to the invoking endpoint and glob is empty
    // (true for the Section-5.1 sequential embedding, set by
    // CanonicalAtomicObject). Must be accurate when set.
    bool respondsToInvokerOnly = false;
  };

  CanonicalGeneralService(types::GeneralServiceType type, int id,
                          std::vector<int> endpoints, int resilience,
                          Options options);
  CanonicalGeneralService(types::GeneralServiceType type, int id,
                          std::vector<int> endpoints, int resilience);

  // -- Automaton interface ------------------------------------------------
  std::string name() const override;
  std::unique_ptr<ioa::AutomatonState> initialState() const override;
  std::vector<ioa::TaskId> tasks() const override;
  std::optional<ioa::Action> enabledAction(const ioa::AutomatonState& s,
                                           const ioa::TaskId& t) const override;
  void apply(ioa::AutomatonState& s, const ioa::Action& a) const override;
  bool participates(const ioa::Action& a) const override;
  std::unique_ptr<ioa::AutomatonState> relabeledState(
      const ioa::AutomatonState& s,
      const std::vector<int>& perm) const override;
  ioa::Automaton::TaskStructure taskStructure() const override;

  // -- Metadata ------------------------------------------------------------
  int id() const { return id_; }
  const std::vector<int>& endpoints() const { return endpoints_; }
  int resilience() const { return resilience_; }
  bool isWaitFree() const {
    return resilience_ >= static_cast<int>(endpoints_.size()) - 1;
  }
  ioa::ServiceMeta meta() const;

  // Downcast helper for the analysis engine (checked).
  static const ServiceState& stateOf(const ioa::AutomatonState& s);
  static ServiceState& stateOf(ioa::AutomatonState& s);

 private:
  bool dummyEndpointEnabled(const ServiceState& s, int i) const;
  bool dummyComputeEnabled(const ServiceState& s) const;
  void appendResponses(ServiceState& s, types::ResponseMap rm) const;

  types::GeneralServiceType type_;
  int id_;
  std::vector<int> endpoints_;
  int resilience_;
  int globalTasks_;
  Options options_;
};

}  // namespace boosting::services
