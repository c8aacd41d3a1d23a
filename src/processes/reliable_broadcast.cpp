#include "processes/reliable_broadcast.h"

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

class RBState final : public ProcessStateBase {
 public:
  Value seen = Value::emptySet();      // set of ("rb", origin, v) records
  std::vector<Value> sendQueue;        // pending ("send", to, payload)
  std::vector<Value> deliverQueue;     // pending ("deliver", origin, v)

  std::unique_ptr<ioa::AutomatonState> clone() const override {
    return std::make_unique<RBState>(*this);
  }
  std::size_t hash() const override {
    std::size_t h = baseHash();
    util::hashCombine(h, seen.hash());
    for (const Value& v : sendQueue) util::hashCombine(h, v.hash());
    util::hashCombine(h, 0x5eed);
    for (const Value& v : deliverQueue) util::hashCombine(h, v.hash());
    return h;
  }
  bool equals(const ioa::AutomatonState& other) const override {
    const auto* o = dynamic_cast<const RBState*>(&other);
    return o != nullptr && baseEquals(*o) && seen == o->seen &&
           sendQueue == o->sendQueue && deliverQueue == o->deliverQueue;
  }
  std::string str() const override {
    return "rb seen=" + seen.str() + " outq=" +
           std::to_string(sendQueue.size()) + " dq=" +
           std::to_string(deliverQueue.size()) + baseStr();
  }
};

RBState& st(ProcessStateBase& s) { return dynamic_cast<RBState&>(s); }
const RBState& st(const ProcessStateBase& s) {
  return dynamic_cast<const RBState&>(s);
}

}  // namespace

ReliableBroadcastProcess::ReliableBroadcastProcess(int endpoint,
                                                   int processCount,
                                                   int channelId)
    : ProcessBase(endpoint), n_(processCount), channelId_(channelId) {}

std::string ReliableBroadcastProcess::name() const {
  return "P" + std::to_string(endpoint()) + "<rbcast>";
}

std::unique_ptr<ioa::AutomatonState> ReliableBroadcastProcess::initialState()
    const {
  return std::make_unique<RBState>();
}

Action ReliableBroadcastProcess::chooseAction(
    const ProcessStateBase& base) const {
  const RBState& s = st(base);
  // Relay before delivering: drain the send queue first, so by the time a
  // delivery is announced the message is already on its way everywhere.
  if (!s.sendQueue.empty()) {
    return Action::invoke(endpoint(), channelId_, s.sendQueue.front());
  }
  if (!s.deliverQueue.empty()) {
    return Action::envDecide(endpoint(), s.deliverQueue.front());
  }
  return Action::procDummy(endpoint());
}

void ReliableBroadcastProcess::onInit(ProcessStateBase& base) const {
  RBState& s = st(base);
  const Value record = sym("rb", Value(endpoint()), s.input);
  if (s.seen.setContains(record)) return;
  s.seen = s.seen.setInsert(record);
  for (int j = 0; j < n_; ++j) {
    if (j == endpoint()) continue;
    s.sendQueue.push_back(sym("send", Value(j), record));
  }
  s.deliverQueue.push_back(sym("deliver", Value(endpoint()), s.input));
}

void ReliableBroadcastProcess::onRespond(ProcessStateBase& base,
                                         int serviceId,
                                         const Value& resp) const {
  if (serviceId != channelId_) return;
  RBState& s = st(base);
  if (resp.tag() != "msg") return;
  const Value& record = resp.at(2);  // ("rb", origin, v)
  if (record.tag() != "rb") {
    throw std::logic_error(name() + ": unexpected payload " + record.str());
  }
  if (s.seen.setContains(record)) return;  // duplicate suppression
  s.seen = s.seen.setInsert(record);
  for (int j = 0; j < n_; ++j) {
    if (j == endpoint()) continue;
    s.sendQueue.push_back(sym("send", Value(j), record));
  }
  s.deliverQueue.push_back(sym("deliver", record.at(1), record.at(2)));
}

void ReliableBroadcastProcess::onLocal(ProcessStateBase& base,
                                       const Action& a) const {
  RBState& s = st(base);
  if (a.kind == ioa::ActionKind::Invoke) {
    s.sendQueue.erase(s.sendQueue.begin());
  } else if (a.kind == ioa::ActionKind::EnvDecide) {
    s.deliverQueue.erase(s.deliverQueue.begin());
  }
}

std::unique_ptr<ioa::System> buildReliableBroadcastSystem(
    const ReliableBroadcastSpec& spec) {
  auto sys = std::make_unique<ioa::System>();
  std::vector<int> all;
  for (int i = 0; i < spec.processCount; ++i) {
    all.push_back(i);
    sys->addProcess(std::make_shared<ReliableBroadcastProcess>(
        i, spec.processCount, spec.channelId));
  }
  services::CanonicalObliviousService::Options opts;
  opts.policy = spec.policy;
  auto fabric = std::make_shared<services::CanonicalObliviousService>(
      types::pointToPointChannelType(), spec.channelId, all,
      spec.channelResilience, opts);
  sys->addService(fabric, fabric->meta());
  return sys;
}

std::vector<Value> deliveriesOf(const ioa::Execution& exec, int endpoint) {
  std::vector<Value> out;
  for (const ioa::Action& a : exec.actions()) {
    if (a.kind == ioa::ActionKind::EnvDecide && a.endpoint == endpoint &&
        a.payload.tag() == "deliver") {
      out.push_back(a.payload);
    }
  }
  return out;
}

}  // namespace boosting::processes
