// Heap allocations made by cloning the initial state of a 7-endpoint
// canonical service: at most the state object plus its two endpoint
// tables (inv-buffers and resp-buffers). Every reachable configuration of
// G(C) holds such a clone, so per-endpoint container overhead multiplies
// by the state count. Standalone (no test framework): the counting global
// operator new must see only the allocations of the clone under test.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "services/canonical_atomic.h"
#include "types/builtin_types.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

int main() {
  using boosting::services::CanonicalAtomicObject;
  const CanonicalAtomicObject obj(boosting::types::binaryConsensusType(), 100,
                                  {0, 1, 2, 3, 4, 5, 6}, 1);
  const auto initial = obj.initialState();
  const std::size_t before = g_allocations;
  auto copy = initial->clone();
  const std::size_t made = g_allocations - before;
  constexpr std::size_t kMax = 3;
  if (!copy->equals(*initial)) {
    std::fprintf(stderr, "clone differs from the initial state\n");
    return 1;
  }
  std::printf("clone of a 7-endpoint service state: %zu allocations (max %zu)\n",
              made, kMax);
  return made <= kMax ? 0 : 1;
}
