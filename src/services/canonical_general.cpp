#include "services/canonical_general.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/hashing.h"

namespace boosting::services {

using ioa::Action;
using ioa::ActionKind;
using ioa::TaskId;
using ioa::TaskOwner;
using util::Value;

// ---------------------------------------------------------------------------
// EndpointQueues
// ---------------------------------------------------------------------------

namespace {

// First entry whose endpoint is not below i (the table is endpoint-sorted).
template <typename It>
It lowerBound(It first, It last, int i) {
  return std::lower_bound(
      first, last, i,
      [](const EndpointQueues::Entry& e, int key) { return e.first < key; });
}

[[noreturn]] void throwNoEndpoint(int i) {
  throw std::out_of_range("EndpointQueues::at: no endpoint " +
                          std::to_string(i));
}

// Pops the head of a FIFO buffer. Buffers hold a handful of values, so
// shifting the tail down beats a deque's per-queue block allocation.
Value popFront(EndpointQueues::Queue& q) {
  Value head = std::move(q.front());
  q.erase(q.begin());
  return head;
}

}  // namespace

EndpointQueues::Queue& EndpointQueues::operator[](int i) {
  auto it = lowerBound(entries_.begin(), entries_.end(), i);
  if (it == entries_.end() || it->first != i) {
    it = entries_.emplace(it, i, Queue{});
  }
  return it->second;
}

EndpointQueues::Queue& EndpointQueues::at(int i) {
  auto it = find(i);
  if (it == entries_.end()) throwNoEndpoint(i);
  return it->second;
}

const EndpointQueues::Queue& EndpointQueues::at(int i) const {
  auto it = find(i);
  if (it == entries_.end()) throwNoEndpoint(i);
  return it->second;
}

EndpointQueues::iterator EndpointQueues::find(int i) {
  auto it = lowerBound(entries_.begin(), entries_.end(), i);
  return it != entries_.end() && it->first == i ? it : entries_.end();
}

EndpointQueues::const_iterator EndpointQueues::find(int i) const {
  auto it = lowerBound(entries_.begin(), entries_.end(), i);
  return it != entries_.end() && it->first == i ? it : entries_.end();
}

// ---------------------------------------------------------------------------
// ServiceState
// ---------------------------------------------------------------------------

std::unique_ptr<ioa::AutomatonState> ServiceState::clone() const {
  return std::make_unique<ServiceState>(*this);
}

std::size_t ServiceState::hash() const {
  std::size_t h = 0xce5e1ceu;
  util::hashCombine(h, val.hash());
  for (const auto& [i, q] : invBuf) {
    util::hashValue(h, i);
    for (const Value& v : q) util::hashCombine(h, v.hash());
    util::hashCombine(h, 0x1d);  // queue delimiter
  }
  for (const auto& [i, q] : respBuf) {
    util::hashValue(h, ~static_cast<std::size_t>(i));
    for (const Value& v : q) util::hashCombine(h, v.hash());
    util::hashCombine(h, 0x2d);
  }
  for (int i : failed) util::hashValue(h, i + 0x1000);
  return h;
}

bool ServiceState::equals(const ioa::AutomatonState& other) const {
  const auto* o = dynamic_cast<const ServiceState*>(&other);
  if (o == nullptr) return false;
  return val == o->val && invBuf == o->invBuf && respBuf == o->respBuf &&
         failed == o->failed;
}

std::string ServiceState::str() const {
  std::string out = "val=" + val.str();
  auto bufs = [](const EndpointQueues& m) {
    std::string s = "{";
    bool first = true;
    for (const auto& [i, q] : m) {
      if (q.empty()) continue;
      if (!first) s += ", ";
      first = false;
      s += std::to_string(i) + ":[";
      for (std::size_t j = 0; j < q.size(); ++j) {
        if (j > 0) s += " ";
        s += q[j].str();
      }
      s += "]";
    }
    return s + "}";
  };
  out += " inv=" + bufs(invBuf) + " resp=" + bufs(respBuf);
  if (!failed.empty()) {
    out += " failed={";
    bool first = true;
    for (int i : failed) {
      if (!first) out += ",";
      first = false;
      out += std::to_string(i);
    }
    out += "}";
  }
  return out;
}

// ---------------------------------------------------------------------------
// CanonicalGeneralService
// ---------------------------------------------------------------------------

CanonicalGeneralService::CanonicalGeneralService(
    types::GeneralServiceType type, int id, std::vector<int> endpoints,
    int resilience, Options options)
    : type_(std::move(type)),
      id_(id),
      endpoints_(std::move(endpoints)),
      resilience_(resilience),
      options_(options) {
  if (endpoints_.empty()) {
    throw std::logic_error("canonical service: endpoint set must be nonempty");
  }
  std::sort(endpoints_.begin(), endpoints_.end());
  if (std::adjacent_find(endpoints_.begin(), endpoints_.end()) !=
      endpoints_.end()) {
    throw std::logic_error("canonical service: duplicate endpoints");
  }
  if (resilience_ < 0) {
    throw std::logic_error("canonical service: negative resilience");
  }
  // The failure-detector types use negative sentinels for "per-endpoint"
  // global task counts, resolved here against |J|.
  const int n = static_cast<int>(endpoints_.size());
  if (type_.globalTaskCount == -1) {
    globalTasks_ = n;
  } else if (type_.globalTaskCount == -2) {
    globalTasks_ = n + 1;
  } else if (type_.globalTaskCount >= 0) {
    globalTasks_ = type_.globalTaskCount;
  } else {
    throw std::logic_error("canonical service: bad globalTaskCount");
  }
}

CanonicalGeneralService::CanonicalGeneralService(
    types::GeneralServiceType type, int id, std::vector<int> endpoints,
    int resilience)
    : CanonicalGeneralService(std::move(type), id, std::move(endpoints),
                              resilience, Options{}) {}

std::string CanonicalGeneralService::name() const {
  return "S" + std::to_string(id_) + "<" + type_.name + ",f=" +
         std::to_string(resilience_) + ">";
}

std::unique_ptr<ioa::AutomatonState> CanonicalGeneralService::initialState()
    const {
  auto s = std::make_unique<ServiceState>();
  s->val = type_.initialValue;
  for (int i : endpoints_) {
    s->invBuf[i];   // materialize empty queues so equality is structural
    s->respBuf[i];
  }
  return s;
}

std::vector<TaskId> CanonicalGeneralService::tasks() const {
  std::vector<TaskId> out;
  out.reserve(endpoints_.size() * 2 + static_cast<std::size_t>(globalTasks_));
  for (int i : endpoints_) out.push_back(TaskId::servicePerform(id_, i));
  for (int i : endpoints_) out.push_back(TaskId::serviceOutput(id_, i));
  for (int g = 0; g < globalTasks_; ++g) {
    out.push_back(TaskId::serviceCompute(id_, g));
  }
  return out;
}

bool CanonicalGeneralService::dummyEndpointEnabled(const ServiceState& s,
                                                   int i) const {
  return s.failed.count(i) != 0 ||
         static_cast<int>(s.failed.size()) > resilience_;
}

bool CanonicalGeneralService::dummyComputeEnabled(const ServiceState& s) const {
  return static_cast<int>(s.failed.size()) > resilience_ ||
         s.failed.size() == endpoints_.size();
}

std::optional<Action> CanonicalGeneralService::enabledAction(
    const ioa::AutomatonState& state, const TaskId& t) const {
  const ServiceState& s = stateOf(state);
  const bool preferDummy = options_.policy == DummyPolicy::PreferDummy;
  switch (t.owner) {
    case TaskOwner::ServicePerform: {
      const int i = t.endpoint;
      const bool dummy = dummyEndpointEnabled(s, i);
      const bool real = !s.invBuf.at(i).empty();
      if (dummy && (preferDummy || !real)) return Action::dummyPerform(i, id_);
      if (real) return Action::perform(i, id_);
      return std::nullopt;
    }
    case TaskOwner::ServiceOutput: {
      const int i = t.endpoint;
      const bool dummy = dummyEndpointEnabled(s, i);
      const bool real = !s.respBuf.at(i).empty();
      if (dummy && (preferDummy || !real)) return Action::dummyOutput(i, id_);
      if (real) return Action::respond(i, id_, s.respBuf.at(i).front());
      return std::nullopt;
    }
    case TaskOwner::ServiceCompute: {
      const bool dummy = dummyComputeEnabled(s);
      if (dummy && preferDummy) return Action::dummyCompute(t.gtask, id_);
      // delta2 is total, so the real compute action is always enabled.
      return Action::compute(t.gtask, id_);
    }
    case TaskOwner::Process:
      break;
  }
  return std::nullopt;
}

void CanonicalGeneralService::appendResponses(ServiceState& s,
                                              types::ResponseMap rm) const {
  for (auto& [j, seq] : rm.out) {
    auto it = s.respBuf.find(j);
    if (it == s.respBuf.end()) {
      throw std::logic_error(name() + ": response addressed to non-endpoint " +
                             std::to_string(j));
    }
    for (Value& r : seq) {
      if (options_.coalesceResponses && !it->second.empty() &&
          it->second.back() == r) {
        continue;
      }
      it->second.push_back(std::move(r));
    }
  }
}

void CanonicalGeneralService::apply(ioa::AutomatonState& state,
                                    const Action& a) const {
  ServiceState& s = stateOf(state);
  switch (a.kind) {
    case ActionKind::Invoke: {
      auto it = s.invBuf.find(a.endpoint);
      if (it == s.invBuf.end()) {
        throw std::logic_error(name() + ": invocation from non-endpoint " +
                               std::to_string(a.endpoint));
      }
      it->second.push_back(a.payload);
      return;
    }
    case ActionKind::Perform: {
      auto& q = s.invBuf.at(a.endpoint);
      if (q.empty()) {
        throw std::logic_error(name() + ": perform on empty inv-buffer");
      }
      Value inv = popFront(q);
      auto [rm, next] =
          type_.delta1(inv, a.endpoint, s.val, endpoints_, s.failed);
      s.val = std::move(next);
      appendResponses(s, std::move(rm));
      return;
    }
    case ActionKind::Respond: {
      auto& q = s.respBuf.at(a.endpoint);
      if (q.empty() || !(q.front() == a.payload)) {
        throw std::logic_error(name() + ": respond does not match buffer head");
      }
      popFront(q);
      return;
    }
    case ActionKind::Compute: {
      auto [rm, next] = type_.delta2(a.gtask, s.val, endpoints_, s.failed);
      s.val = std::move(next);
      appendResponses(s, std::move(rm));
      return;
    }
    case ActionKind::Fail: {
      if (std::binary_search(endpoints_.begin(), endpoints_.end(),
                             a.endpoint)) {
        s.failed.insert(a.endpoint);
      }
      return;
    }
    case ActionKind::DummyPerform:
    case ActionKind::DummyOutput:
    case ActionKind::DummyCompute:
      return;  // dummies are explicit no-ops
    default:
      throw std::logic_error(name() + ": unexpected action " + a.str());
  }
}

bool CanonicalGeneralService::participates(const Action& a) const {
  switch (a.kind) {
    case ActionKind::Fail:
      return std::binary_search(endpoints_.begin(), endpoints_.end(),
                                a.endpoint);
    case ActionKind::Invoke:
    case ActionKind::Respond:
    case ActionKind::Perform:
    case ActionKind::DummyPerform:
    case ActionKind::DummyOutput:
    case ActionKind::Compute:
    case ActionKind::DummyCompute:
      return a.component == id_;
    default:
      return false;
  }
}

std::unique_ptr<ioa::AutomatonState> CanonicalGeneralService::relabeledState(
    const ioa::AutomatonState& state, const std::vector<int>& perm) const {
  const ServiceState& s = stateOf(state);
  auto out = std::make_unique<ServiceState>();
  out->val = s.val;
  const auto remap = [&](const EndpointQueues& m) {
    EndpointQueues r;
    r.reserve(m.size());
    for (const auto& [i, q] : m) r[perm[static_cast<std::size_t>(i)]] = q;
    return r;
  };
  out->invBuf = remap(s.invBuf);
  out->respBuf = remap(s.respBuf);
  for (int i : s.failed) out->failed.insert(perm[static_cast<std::size_t>(i)]);
  return out;
}

ioa::Automaton::TaskStructure CanonicalGeneralService::taskStructure() const {
  ioa::Automaton::TaskStructure ts;
  // The engine IS the canonical Fig. 1/4/8 shape: per-endpoint FIFO inv/resp
  // buffers around a central value, perform/output/compute tasks.
  ts.conformant = true;
  ts.coalescedResponses = options_.coalesceResponses;
  ts.respondsToInvokerOnly = options_.respondsToInvokerOnly && globalTasks_ == 0;
  return ts;
}

ioa::ServiceMeta CanonicalGeneralService::meta() const {
  ioa::ServiceMeta m;
  m.id = id_;
  m.endpoints = endpoints_;
  m.resilience = resilience_;
  m.failureAware = options_.failureAware;
  m.isRegister = options_.isRegister;
  return m;
}

const ServiceState& CanonicalGeneralService::stateOf(
    const ioa::AutomatonState& s) {
  const auto* p = dynamic_cast<const ServiceState*>(&s);
  if (p == nullptr) {
    throw std::logic_error("expected ServiceState");
  }
  return *p;
}

ServiceState& CanonicalGeneralService::stateOf(ioa::AutomatonState& s) {
  auto* p = dynamic_cast<ServiceState*>(&s);
  if (p == nullptr) {
    throw std::logic_error("expected ServiceState");
  }
  return *p;
}

}  // namespace boosting::services
