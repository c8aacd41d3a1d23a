#include "analysis/transition_cache.h"

#include <algorithm>
#include <optional>

namespace boosting::analysis {

namespace {

// Enabled-class code of one task: 0 = disabled; otherwise
// 1 | kind<<1 | (invoked service + 1)<<6, the service only for an Invoke.
std::uint32_t classCode(const ioa::Action* a) {
  if (a == nullptr) return 0;
  const std::uint32_t svc =
      a->kind == ioa::ActionKind::Invoke
          ? static_cast<std::uint32_t>(a->component + 1)
          : 0;
  return 1u | (static_cast<std::uint32_t>(a->kind) << 1) | (svc << 6);
}

}  // namespace

TransitionCache::TransitionCache(const ioa::System& sys)
    : sys_(sys),
      rowSize_(static_cast<std::size_t>(sys.processCount()) +
                   static_cast<std::size_t>(sys.serviceCount()),
               0),
      decisionRows_(rowSize_.size()),
      classRow_(rowSize_.size()) {
  const auto& tasks = sys.allTasks();
  ownerSlot_.reserve(tasks.size());
  rowOffset_.reserve(tasks.size());
  for (const ioa::TaskId& t : tasks) {
    const std::size_t slot = sys.ownerSlot(t);
    ownerSlot_.push_back(static_cast<std::uint32_t>(slot));
    rowOffset_.push_back(rowSize_[slot]++);
  }
}

std::uint32_t TransitionCache::probe(std::uint32_t id, std::size_t taskIndex) {
  const std::size_t slot = ownerSlot_[taskIndex];
  if (id >= idInfo_.size()) {
    idInfo_.resize(std::max<std::size_t>(std::size_t{id} + 1,
                                         idInfo_.size() * 2));
  }
  std::uint32_t row = idInfo_[id].row;
  if (row == kUnknown) {
    row = static_cast<std::uint32_t>(entries_.size());
    entries_.resize(entries_.size() + rowSize_[slot]);
    idInfo_[id].row = row;
  }
  const std::uint32_t ei = row + rowOffset_[taskIndex];
  Entry& e = entries_[ei];
  ++stats_.enabledLookups;
  if (e.action != kUnknown) {
    ++stats_.enabledHits;
    return ei;
  }
  ++stats_.enabledMisses;
  ++entryCount_;
  std::optional<ioa::Action> a = sys_.componentAtSlot(slot).enabledAction(
      *canon_.rep(id).state, sys_.allTasks()[taskIndex]);
  if (!a) {
    e.action = kDisabled;
    return ei;
  }
  e.othersBegin = static_cast<std::uint32_t>(others_.size());
  sys_.forEachParticipant(*a, [&](std::size_t p) {
    if (p == slot) {
      e.ownerParticipates = true;
    } else {
      others_.push_back(static_cast<std::uint32_t>(p));
    }
  });
  e.othersCount = static_cast<std::uint16_t>(others_.size() - e.othersBegin);
  e.action = internAction(std::move(*a));
  return ei;
}

std::uint32_t TransitionCache::internAction(ioa::Action&& a) {
  const util::IdIndex::Probe p = poolIndex_.find(
      static_cast<std::uint32_t>(a.hash()),
      [&](std::uint32_t idx) { return pool_[idx] == a; });
  if (p.id != util::IdIndex::kNone) return p.id;
  const auto idx = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(std::move(a));
  poolIndex_.insert(p, idx);
  return idx;
}

const ioa::Action* TransitionCache::enabledAction(const std::uint32_t* ids,
                                                  std::size_t taskIndex) {
  const std::uint32_t a =
      entries_[probe(ids[ownerSlot_[taskIndex]], taskIndex)].action;
  return a == kDisabled ? nullptr : &pool_[a];
}

std::uint32_t TransitionCache::enabledClass(const std::uint32_t* ids,
                                            std::size_t slot) {
  const std::uint32_t id = ids[slot];
  if (id < idInfo_.size() && idInfo_[id].enabledClass != kUnknown) {
    return idInfo_[id].enabledClass;
  }
  std::vector<std::uint32_t> tuple;
  tuple.reserve(rowSize_[slot]);
  for (std::size_t ti = 0; ti < ownerSlot_.size(); ++ti) {
    if (ownerSlot_[ti] != slot) continue;
    const std::uint32_t a = entries_[probe(id, ti)].action;
    tuple.push_back(classCode(a == kDisabled ? nullptr : &pool_[a]));
  }
  const auto it =
      classes_.emplace(std::move(tuple),
                       static_cast<std::uint32_t>(classes_.size()))
          .first;
  // probe() sized idInfo_ past `id`, unless the slot owns no task.
  if (id >= idInfo_.size()) idInfo_.resize(std::size_t{id} + 1);
  idInfo_[id].enabledClass = it->second;
  return it->second;
}

std::uint32_t TransitionCache::findAmpleDecision(
    const std::uint32_t* ids) const {
  std::vector<std::uint32_t> classes(width());
  for (std::size_t k = 0; k < width(); ++k) {
    if (ids[k] >= idInfo_.size() ||
        idInfo_[ids[k]].enabledClass == kUnknown) {
      return RowTable::kNone;
    }
    classes[k] = idInfo_[ids[k]].enabledClass;
  }
  return decisionRows_.find(classes.data()).id;
}

std::uint32_t TransitionCache::successorId(std::uint32_t id,
                                           const ioa::Action& a) {
  // Copy out of the rep: registering the successor may grow the table.
  const std::size_t slot = canon_.rep(id).slot;
  std::unique_ptr<ioa::AutomatonState> stepped = canon_.rep(id).state->clone();
  sys_.componentAtSlot(slot).apply(*stepped, a);
  std::shared_ptr<const ioa::AutomatonState> sp(std::move(stepped));
  const std::size_t h = sp->hash();
  ioa::statePerfNoteSlotClone();
  ioa::statePerfNoteSlotHash();
  return canon_.canonicalizeSlot(slot, std::move(sp), h);
}

std::uint32_t TransitionCache::step(const std::uint32_t* ids,
                                    std::size_t taskIndex,
                                    std::uint32_t* next) {
  const std::uint32_t ei = probe(ids[ownerSlot_[taskIndex]], taskIndex);
  const std::uint32_t ai = entries_[ei].action;
  if (ai == kDisabled) return kDisabled;
  const ioa::Action& action = pool_[ai];
  std::copy(ids, ids + width(), next);

  if (entries_[ei].ownerParticipates) {
    const std::size_t owner = ownerSlot_[taskIndex];
    ++stats_.applyLookups;
    if (entries_[ei].ownerNext == ioa::kNoSlotId) {
      ++stats_.applyMisses;
      entries_[ei].ownerNext = successorId(ids[owner], action);
    } else {
      ++stats_.applyHits;
    }
    next[owner] = entries_[ei].ownerNext;
  }
  const Entry e = entries_[ei];
  for (std::uint32_t k = 0; k < e.othersCount; ++k) {
    const std::size_t p = others_[e.othersBegin + k];
    const std::uint32_t key[2] = {ei, ids[p]};
    ++stats_.applyLookups;
    const RowTable::Probe found = nextKeys_.find(key);
    if (found.id == RowTable::kNone) {
      ++stats_.applyMisses;
      nextIds_.push_back(successorId(ids[p], action));
      nextKeys_.insert(found, key);  // successorId leaves nextKeys_ alone
      next[p] = nextIds_.back();
    } else {
      ++stats_.applyHits;
      next[p] = nextIds_[found.id];
    }
  }
  return ai;
}

}  // namespace boosting::analysis
