// IdIndex: the one open-addressing index behind every interning table of
// the engine (configuration rows, ample decisions, the action pool, the
// slot representatives, the successor memo, a hook scan's visited set).
//
// Each table keeps its own content in a dense array and issues ids in
// insertion order; the index maps a 32-bit content hash to those ids.
//   - Slots are 8 bytes, {hash, id}, probed linearly from `hash & mask`.
//   - A probe compares the stored hash first and calls the owner's
//     `eq(id)` only on a hash match, so content is read at most once per
//     true candidate.
//   - The index doubles at 70% load (pastMaxLoad), and growth rehomes each
//     slot from its stored hash without calling back into the owner.
// No deletions, so no tombstones; clear() empties it and keeps the
// capacity. Not thread-safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace boosting::util {

// The load rule of every open-addressing index: grow once `used` of `cap`
// slots are taken, at 70%, so linear probes stay short.
constexpr bool pastMaxLoad(std::size_t used, std::size_t cap) {
  return used * 10 >= cap * 7;
}

class IdIndex {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  // `initialSlots` (a power of two) is allocated on the first insert.
  explicit IdIndex(std::size_t initialSlots = 1024)
      : initialSlots_(initialSlots) {}

  // Where an id is, or where it would go: id == kNone when absent.
  struct Probe {
    std::uint32_t id = kNone;
    std::uint32_t hash = 0;
    std::size_t slot = 0;
  };

  // The id under `hash` for which eq(id) holds, or the empty slot that
  // ends the probe sequence.
  template <class Eq>
  Probe find(std::uint32_t hash, Eq&& eq) const {
    Probe p;
    p.hash = hash;
    if (slots_.empty()) return p;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    for (; slots_[i].id != kNone; i = (i + 1) & mask) {
      if (slots_[i].hash == hash && eq(slots_[i].id)) {
        p.id = slots_[i].id;
        return p;
      }
    }
    p.slot = i;
    return p;
  }

  // Files `id` under p.hash, where `p` = find(p.hash, ...) found nothing.
  // No other insert may come between the find and this call.
  void insert(const Probe& p, std::uint32_t id) {
    std::size_t slot = p.slot;
    if (slots_.empty()) {
      rehome(initialSlots_);
      slot = emptySlotFor(p.hash);
    }
    slots_[slot] = Slot{p.hash, id};
    if (pastMaxLoad(++used_, slots_.size())) rehome(slots_.size() * 2);
  }

  // Forgets every id; the capacity stays for the next fill.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
  }

  std::size_t size() const { return used_; }
  // Allocated bytes of the slot array.
  std::uint64_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  // Self-check against the owner's `ids` ids 0..ids-1: each sits in
  // exactly one slot, under hashOf(id), where find() reaches it. Returns
  // false and (when `why` is non-null) a diagnostic on the first violation.
  template <class HashOf>
  bool checkConsistent(std::size_t ids, HashOf&& hashOf,
                       std::string* why = nullptr) const {
    auto fail = [&](const char* msg) {
      if (why) *why = msg;
      return false;
    };
    if (used_ != ids) return fail("indexed ids != owner's id count");
    std::vector<char> seen(ids, 0);
    std::size_t occupied = 0;
    for (const Slot& s : slots_) {
      if (s.id == kNone) continue;
      ++occupied;
      if (s.id >= ids) return fail("index slot references out-of-range id");
      if (seen[s.id]) return fail("id in two index slots");
      seen[s.id] = 1;
      if (s.hash != hashOf(s.id)) {
        return fail("index slot hash differs from its content's hash");
      }
      const std::uint32_t want = s.id;
      if (find(s.hash, [want](std::uint32_t id) { return id == want; }).id !=
          want) {
        return fail("index slot unreachable from its home slot");
      }
    }
    if (occupied != ids) return fail("occupied index slots != id count");
    return true;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kNone;
  };

  // The first empty slot of `hash`'s probe sequence.
  std::size_t emptySlotFor(std::uint32_t hash) const {
    return find(hash, [](std::uint32_t) { return false; }).slot;
  }

  void rehome(std::size_t newCap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(newCap, Slot{});
    // Ids are distinct, so reinsertion only needs the first empty slot.
    for (const Slot& s : old) {
      if (s.id != kNone) slots_[emptySlotFor(s.hash)] = s;
    }
  }

  std::size_t initialSlots_;
  std::size_t used_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace boosting::util
