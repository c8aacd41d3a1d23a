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

// The per-endpoint FIFO buffers of a ServiceState: one endpoint-sorted
// vector of (endpoint, value) items, FIFO within each endpoint. Every
// reachable configuration holds its service states, so per-endpoint
// container overhead multiplies by the state count: copying a table is at
// most one allocation (list payloads are shared, see util/value.h), and
// an empty buffer allocates nothing and has no item at all. The table does
// not know the endpoint set; the automaton checks membership.
class EndpointQueues {
 public:
  struct Item {
    int endpoint;
    util::Value value;
    bool operator==(const Item&) const = default;
  };

  // One endpoint's queue: a read-only view of its run of items, head
  // first. Invalidated by any change to the table.
  class Queue {
   public:
    Queue(const Item* first, const Item* last) : first_(first), last_(last) {}
    bool empty() const { return first_ == last_; }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    const util::Value& front() const { return first_->value; }
    const util::Value& back() const { return (last_ - 1)->value; }
    const util::Value& operator[](std::size_t k) const {
      return first_[k].value;
    }
    // Values equal in order (the endpoints may differ).
    bool operator==(const Queue& other) const;
    // Three-way lexicographic order by util::Value::operator<.
    int compare(const Queue& other) const;

   private:
    const Item* first_;
    const Item* last_;
  };

  // The queue of endpoint i; empty for an endpoint without items.
  Queue operator[](int i) const;
  // Appends v to the tail of endpoint i's queue.
  void push(int i, util::Value v);
  // Removes and returns the head of endpoint i's queue, which must be
  // nonempty.
  util::Value popFront(int i);
  // The table with endpoint i renamed perm[i]; perm must be injective on
  // the endpoints present. Queue order is kept.
  EndpointQueues relabeled(const std::vector<int>& perm) const;

  // Calls fn(i, queue) for each nonempty queue, in endpoint order.
  template <typename Fn>
  void forEachQueue(Fn&& fn) const {
    const Item* it = items_.data();
    const Item* const end = it + items_.size();
    while (it != end) {
      const Item* run = it;
      while (it != end && it->endpoint == run->endpoint) ++it;
      fn(run->endpoint, Queue(run, it));
    }
  }

  const std::vector<Item>& items() const { return items_; }

  bool operator==(const EndpointQueues&) const = default;

 private:
  std::vector<Item> items_;
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
  // Endpoint i's view is (invBuf[i], respBuf[i], i in failed); queues
  // compare lexicographically by util::Value::operator<.
  int compareEndpointViews(const ioa::AutomatonState& s, int i,
                           int j) const override;
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
  bool isEndpoint(int i) const;
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
