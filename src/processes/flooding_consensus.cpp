#include "processes/flooding_consensus.h"

#include <stdexcept>
#include <vector>

#include "services/canonical_oblivious.h"
#include "types/channel_type.h"
#include "util/hashing.h"

namespace boosting::processes {

using ioa::Action;
using util::Value;
using util::sym;

namespace {

class FloodState final : public ProcessStateBase {
 public:
  std::vector<Value> sendQueue;  // pending ("send", j, v)
  Value::List received;          // slot per process; nil until heard from
  int heardFrom = 0;
  bool decidePending = false;
  bool done = false;

  std::unique_ptr<ioa::AutomatonState> clone() const override {
    return std::make_unique<FloodState>(*this);
  }
  std::size_t hash() const override {
    std::size_t h = baseHash();
    for (const Value& v : sendQueue) util::hashCombine(h, v.hash());
    util::hashCombine(h, 0xf100d);
    for (const Value& v : received) util::hashCombine(h, v.hash());
    util::hashValue(h, heardFrom);
    util::hashValue(h, (decidePending ? 1 : 0) | (done ? 2 : 0));
    return h;
  }
  bool equals(const ioa::AutomatonState& other) const override {
    const auto* o = dynamic_cast<const FloodState*>(&other);
    return o != nullptr && baseEquals(*o) && sendQueue == o->sendQueue &&
           received == o->received && heardFrom == o->heardFrom &&
           decidePending == o->decidePending && done == o->done;
  }
  // Faithful serialization (injective on distinct states): the symmetry
  // layer tie-breaks orbit minimization on str(), so every field -- queue
  // contents and the per-sender received values included -- must show.
  std::string str() const override {
    std::string out = "flood heard=" + std::to_string(heardFrom) + " outq=[";
    for (std::size_t j = 0; j < sendQueue.size(); ++j) {
      if (j > 0) out += " ";
      out += sendQueue[j].str();
    }
    out += "] rcv=[";
    for (std::size_t j = 0; j < received.size(); ++j) {
      if (j > 0) out += " ";
      out += received[j].str();
    }
    out += "]";
    if (decidePending) out += " decidePending";
    if (done) out += " done";
    return out + baseStr();
  }

  Value minimumReceived() const {
    Value best;
    for (const Value& v : received) {
      if (v.isNil()) continue;
      if (best.isNil() || v < best) best = v;
    }
    return best;
  }
};

FloodState& st(ProcessStateBase& s) { return dynamic_cast<FloodState&>(s); }
const FloodState& st(const ProcessStateBase& s) {
  return dynamic_cast<const FloodState&>(s);
}

}  // namespace

FloodingConsensusProcess::FloodingConsensusProcess(int endpoint,
                                                   int processCount,
                                                   int channelId)
    : ProcessBase(endpoint), n_(processCount), channelId_(channelId) {}

std::string FloodingConsensusProcess::name() const {
  return "P" + std::to_string(endpoint()) + "<flooding>";
}

std::unique_ptr<ioa::AutomatonState> FloodingConsensusProcess::initialState()
    const {
  auto s = std::make_unique<FloodState>();
  s->received.assign(static_cast<std::size_t>(n_), Value::nil());
  return s;
}

Action FloodingConsensusProcess::chooseAction(
    const ProcessStateBase& base) const {
  const FloodState& s = st(base);
  if (!s.sendQueue.empty()) {
    return Action::invoke(endpoint(), channelId_, s.sendQueue.front());
  }
  if (s.decidePending) {
    return Action::envDecide(endpoint(),
                             sym("decide", s.minimumReceived()));
  }
  return Action::procDummy(endpoint());
}

void FloodingConsensusProcess::onInit(ProcessStateBase& base) const {
  FloodState& s = st(base);
  if (!s.received[static_cast<std::size_t>(endpoint())].isNil()) return;
  s.received[static_cast<std::size_t>(endpoint())] = s.input;
  s.heardFrom += 1;
  for (int j = 0; j < n_; ++j) {
    if (j == endpoint()) continue;
    s.sendQueue.push_back(sym("send", Value(j), s.input));
  }
  if (s.heardFrom == n_ && !s.done) s.decidePending = true;
}

void FloodingConsensusProcess::onRespond(ProcessStateBase& base,
                                         int serviceId,
                                         const Value& resp) const {
  if (serviceId != channelId_ || resp.tag() != "msg") return;
  FloodState& s = st(base);
  const int from = static_cast<int>(resp.at(1).asInt());
  if (!s.received[static_cast<std::size_t>(from)].isNil()) return;
  s.received[static_cast<std::size_t>(from)] = resp.at(2);
  s.heardFrom += 1;
  if (s.heardFrom == n_ && !s.done) s.decidePending = true;
}

void FloodingConsensusProcess::onLocal(ProcessStateBase& base,
                                       const Action& a) const {
  FloodState& s = st(base);
  if (a.kind == ioa::ActionKind::Invoke) {
    s.sendQueue.erase(s.sendQueue.begin());
  } else if (a.kind == ioa::ActionKind::EnvDecide) {
    s.decidePending = false;
    s.done = true;
  }
}

std::unique_ptr<ioa::System> buildFloodingConsensusSystem(
    const FloodingConsensusSpec& spec) {
  auto sys = std::make_unique<ioa::System>();
  std::vector<int> all;
  for (int i = 0; i < spec.processCount; ++i) {
    all.push_back(i);
    sys->addProcess(std::make_shared<FloodingConsensusProcess>(
        i, spec.processCount, spec.channelId));
  }
  services::CanonicalObliviousService::Options opts;
  opts.policy = spec.policy;
  auto fabric = std::make_shared<services::CanonicalObliviousService>(
      types::pointToPointChannelType(), spec.channelId, all,
      spec.channelResilience, opts);
  sys->addService(fabric, fabric->meta());
  // No process symmetry is declared: flood states and channel messages
  // name their sender, so the id-free orbit quotient does not apply.
  return sys;
}

}  // namespace boosting::processes
