// Hash-combination helpers used by all value-semantic state types.
//
// The analysis engine hash-conses component states: the SlotCanonTable
// keys each slot's content by its hash, and the graph keys configurations
// on rows of the resulting slot ids (hashIdRow below). So every state type
// in the library must provide a stable, well-mixed hash. These helpers
// implement the boost-style combine with a 64-bit mixer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace boosting::util {

// splitmix64 finalizer; good avalanche for combining heterogeneous fields.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hash of a row of u32 ids (a configuration's slot ids, or any other
// fixed-width id row): ids folded in pairs through the splitmix64
// finalizer.
inline std::uint64_t hashIdRow(const std::uint32_t* ids,
                               std::size_t n) noexcept {
  std::uint64_t h = 0x51ab5e17u;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    h = mix64(h ^ (std::uint64_t{ids[i]} | (std::uint64_t{ids[i + 1]} << 32)));
  }
  if (i < n) h = mix64(h ^ std::uint64_t{ids[i]});
  return h;
}

// Fold `v` into the running hash `seed`.
constexpr void hashCombine(std::size_t& seed, std::size_t v) noexcept {
  seed = static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(seed) ^
            mix64(static_cast<std::uint64_t>(v))));
}

// Convenience: hash an arbitrary value with std::hash and fold it in.
template <typename T>
void hashValue(std::size_t& seed, const T& v) {
  hashCombine(seed, std::hash<T>{}(v));
}

}  // namespace boosting::util
