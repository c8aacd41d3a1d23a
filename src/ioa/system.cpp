#include "ioa/system.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_map>

#include "util/hashing.h"

namespace boosting::ioa {

namespace {

// Relaxed tallies: cross-thread precision does not matter, cheapness does.
std::atomic<std::uint64_t> gStateCopies{0};
std::atomic<std::uint64_t> gSlotClones{0};
std::atomic<std::uint64_t> gSlotHashes{0};

// Position-salted slot mix: the combined hash is the XOR of these, so a
// slot's contribution can be removed and re-added independently
// (Zobrist-style). The salt keeps equal component states at different
// slots from colliding or cancelling.
std::size_t slotMix(std::size_t slot, std::size_t h) {
  return static_cast<std::size_t>(
      util::mix64(static_cast<std::uint64_t>(h) ^
                  (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(slot) + 1))));
}

}  // namespace

StatePerfCounters statePerfSnapshot() {
  return StatePerfCounters{gStateCopies.load(std::memory_order_relaxed),
                           gSlotClones.load(std::memory_order_relaxed),
                           gSlotHashes.load(std::memory_order_relaxed)};
}

void statePerfReset() {
  gStateCopies.store(0, std::memory_order_relaxed);
  gSlotClones.store(0, std::memory_order_relaxed);
  gSlotHashes.store(0, std::memory_order_relaxed);
}

void statePerfNoteSlotClone() {
  gSlotClones.fetch_add(1, std::memory_order_relaxed);
}

void statePerfNoteSlotHash() {
  gSlotHashes.fetch_add(1, std::memory_order_relaxed);
}

// Copying is structural sharing: per slot a shared_ptr refcount bump plus
// the cached hash -- no component state is cloned until a copy mutates.
SystemState::SystemState(const SystemState& other)
    : slots_(other.slots_), combined_(other.combined_) {
  gStateCopies.fetch_add(1, std::memory_order_relaxed);
}

SystemState& SystemState::operator=(const SystemState& other) {
  if (this == &other) return *this;
  slots_ = other.slots_;
  combined_ = other.combined_;
  gStateCopies.fetch_add(1, std::memory_order_relaxed);
  return *this;
}

void SystemState::appendSlot(std::unique_ptr<AutomatonState> s) {
  Slot sl;
  sl.state = std::shared_ptr<const AutomatonState>(std::move(s));
  slots_.push_back(std::move(sl));
}

AutomatonState& SystemState::mutablePart(std::size_t slot) {
  Slot& sl = slots_[slot];
  // use_count() == 1 proves unique ownership: any concurrent sharer would
  // have had to copy from a shared_ptr it already holds (count >= 2).
  if (sl.state.use_count() != 1) {
    sl.state = std::shared_ptr<const AutomatonState>(sl.state->clone());
    gSlotClones.fetch_add(1, std::memory_order_relaxed);
  }
  sl.id = kNoSlotId;  // content is about to change
  if (sl.hashValid) {
    combined_ ^= slotMix(slot, sl.hash);  // retract the stale contribution
    sl.hashValid = false;
  }
  // Safe: the object is uniquely owned here and was created non-const
  // (initialState()/clone() return unique_ptr<AutomatonState>).
  return const_cast<AutomatonState&>(*sl.state);
}

void SystemState::adoptCanonicalSlot(std::size_t slot,
                                     std::shared_ptr<const AutomatonState> rep,
                                     std::size_t repHash,
                                     std::uint32_t repId) {
  Slot& sl = slots_[slot];
  sl.id = repId;
  if (sl.state.get() == rep.get()) return;  // self-loop on this slot
  if (sl.hashValid) combined_ ^= slotMix(slot, sl.hash);
  sl.state = std::move(rep);
  sl.hash = repHash;
  sl.hashValid = true;
  combined_ ^= slotMix(slot, repHash);
}

void SystemState::setSlot(std::size_t slot,
                          std::shared_ptr<const AutomatonState> rep,
                          std::size_t repHash) {
  Slot& sl = slots_[slot];
  if (sl.hashValid) combined_ ^= slotMix(slot, sl.hash);
  sl.state = std::move(rep);
  sl.hash = repHash;
  sl.hashValid = true;
  // Canonicality is per (slot, content): content moved in from elsewhere
  // must be re-interned by the slot-canon table for this position.
  sl.id = kNoSlotId;
  combined_ ^= slotMix(slot, repHash);
}

std::size_t SystemState::hash() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& sl = slots_[i];
    if (sl.hashValid) continue;
    sl.hash = sl.state->hash();
    sl.hashValid = true;
    combined_ ^= slotMix(i, sl.hash);
    gSlotHashes.fetch_add(1, std::memory_order_relaxed);
  }
  return combined_;
}

std::size_t SystemState::fullRehash() const {
  const std::size_t n = slots_.size();
  // Batched 4-wide slot digest: four independent accumulators break the
  // serial XOR dependency chain so the mix64 pipelines overlap, and each
  // round prefetches the slot states of the next round. XOR is
  // commutative/associative, so the combined value is bit-identical to
  // the scalar loop's.
  std::size_t h0 = kSystemStateHashSeed, h1 = 0, h2 = 0, h3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) {
      __builtin_prefetch(slots_[i + 4].state.get());
      __builtin_prefetch(slots_[i + 5].state.get());
      __builtin_prefetch(slots_[i + 6].state.get());
      __builtin_prefetch(slots_[i + 7].state.get());
    }
    h0 ^= slotMix(i, slots_[i].state->hash());
    h1 ^= slotMix(i + 1, slots_[i + 1].state->hash());
    h2 ^= slotMix(i + 2, slots_[i + 2].state->hash());
    h3 ^= slotMix(i + 3, slots_[i + 3].state->hash());
  }
  std::size_t h = h0 ^ h1 ^ h2 ^ h3;
  for (; i < n; ++i) {
    h ^= slotMix(i, slots_[i].state->hash());
  }
  return h;
}

bool SystemState::equals(const SystemState& other) const {
  if (slots_.size() != other.slots_.size()) return false;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& a = slots_[i];
    const Slot& b = other.slots_[i];
    if (a.state.get() == b.state.get()) continue;  // structural sharing
    if (a.hashValid && b.hashValid && a.hash != b.hash) return false;
    if (!a.state->equals(*b.state)) return false;
  }
  return true;
}

std::string SystemState::str() const {
  std::string out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i > 0) out += "\n";
    out += "  [" + std::to_string(i) + "] " + slots_[i].state->str();
  }
  return out;
}

SlotCanonTable::SlotCanonTable() = default;

SlotCanonTable::~SlotCanonTable() = default;

std::size_t SlotCanonTable::size() const {
  std::size_t n = 0;
  for (const auto& [key, chain] : byKey_) n += chain.size();
  return n;
}

SlotCanonTable::Rep SlotCanonTable::canonicalizeSlot(
    std::size_t slot, std::shared_ptr<const AutomatonState> probe,
    std::size_t probeHash) {
  auto& chain = byKey_[slotMix(slot, probeHash)];
  for (const Rep& rep : chain) {
    if (rep.state.get() == probe.get() || rep.state->equals(*probe)) {
      return rep;
    }
  }
  chain.push_back(Rep{std::move(probe), nextId_++});
  return chain.back();
}

void SlotCanonTable::canonicalize(SystemState& s) {
  s.hash();  // flush per-slot caches so every slot hash is valid
  for (std::size_t i = 0; i < s.slots_.size(); ++i) {
    SystemState::Slot& sl = s.slots_[i];
    if (sl.id != kNoSlotId) continue;  // already a representative somewhere
    Rep rep = canonicalizeSlot(i, sl.state, sl.hash);
    sl.state = std::move(rep.state);
    sl.id = rep.id;
  }
}

void System::addProcess(std::shared_ptr<const Automaton> p) {
  if (!services_.empty()) {
    throw std::logic_error("System: add all processes before services");
  }
  processes_.push_back(std::move(p));
  rebuildTaskCache();
}

void System::addService(std::shared_ptr<const Automaton> s, ServiceMeta meta) {
  if (serviceSlotById_.count(meta.id) != 0) {
    throw std::logic_error("System: duplicate service id " +
                           std::to_string(meta.id));
  }
  for (int e : meta.endpoints) {
    if (e < 0 || e >= processCount()) {
      throw std::logic_error("System: service endpoint out of range");
    }
  }
  serviceSlotById_[meta.id] = processes_.size() + services_.size();
  services_.push_back(std::move(s));
  serviceMetas_.push_back(std::move(meta));
  rebuildTaskCache();
}

std::size_t System::slotForService(int serviceId) const {
  auto it = serviceSlotById_.find(serviceId);
  if (it == serviceSlotById_.end()) {
    throw std::logic_error("System: unknown service id " +
                           std::to_string(serviceId));
  }
  return it->second;
}

const ServiceMeta& System::serviceMeta(int serviceId) const {
  return serviceMetas_[slotForService(serviceId) - processes_.size()];
}

const ServiceMeta& System::serviceMetaAtSlot(std::size_t slot) const {
  if (slot < processes_.size() ||
      slot >= processes_.size() + services_.size()) {
    throw std::logic_error("System: slot is not a service slot");
  }
  return serviceMetas_[slot - processes_.size()];
}

std::vector<int> System::serviceIds() const {
  std::vector<int> ids;
  ids.reserve(serviceMetas_.size());
  for (const auto& [id, slot] : serviceSlotById_) {
    (void)slot;
    ids.push_back(id);
  }
  return ids;  // std::map iteration is already sorted
}

const Automaton& System::componentAtSlot(std::size_t slot) const {
  if (slot < processes_.size()) return *processes_[slot];
  return *services_[slot - processes_.size()];
}

SystemState System::initialState() const {
  SystemState s;
  s.slots_.reserve(processes_.size() + services_.size());
  for (const auto& p : processes_) s.appendSlot(p->initialState());
  for (const auto& svc : services_) s.appendSlot(svc->initialState());
  return s;
}

// Rebuilt eagerly on every addProcess/addService so that allTasks() is a
// pure read: concurrent callers may use it (and enabled()/apply()) on a
// fully built system without synchronization.
void System::rebuildTaskCache() {
  taskCache_.clear();
  for (const auto& p : processes_) {
    for (const TaskId& t : p->tasks()) taskCache_.push_back(t);
  }
  for (const auto& [id, slot] : serviceSlotById_) {
    (void)id;
    for (const TaskId& t : services_[slot - processes_.size()]->tasks()) {
      taskCache_.push_back(t);
    }
  }
}

std::size_t System::ownerSlot(const TaskId& t) const {
  switch (t.owner) {
    case TaskOwner::Process:
      return slotForProcess(t.component);
    case TaskOwner::ServicePerform:
    case TaskOwner::ServiceOutput:
    case TaskOwner::ServiceCompute:
      break;
  }
  return slotForService(t.component);
}

std::optional<Action> System::enabled(const SystemState& s,
                                      const TaskId& t) const {
  const std::size_t slot = ownerSlot(t);
  return componentAtSlot(slot).enabledAction(s.part(slot), t);
}

std::vector<std::size_t> System::participants(const Action& a) const {
  std::vector<std::size_t> out;
  forEachParticipant(a, [&out](std::size_t slot) { out.push_back(slot); });
  return out;
}

void System::applyInPlace(SystemState& s, const Action& a) const {
  // mutablePart detaches (COW) and invalidates exactly the participant
  // slots, so the subsequent re-hash touches only those.
  forEachParticipant(a, [this, &s, &a](std::size_t slot) {
    componentAtSlot(slot).apply(s.mutablePart(slot), a);
  });
}

SystemState System::apply(const SystemState& s, const Action& a) const {
  SystemState next(s);
  applyInPlace(next, a);
  return next;
}

void System::injectInit(SystemState& s, int endpoint, util::Value v) const {
  applyInPlace(s, Action::envInit(endpoint, std::move(v)));
}

void System::injectFail(SystemState& s, int endpoint) const {
  applyInPlace(s, Action::fail(endpoint));
}

}  // namespace boosting::ioa
