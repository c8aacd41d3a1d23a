// Heap allocations made by cloning states of a 7-endpoint canonical
// service. Every reachable configuration of G(C) holds such a clone, so
// per-endpoint container overhead multiplies by the state count:
//
//   - the initial state (empty buffers) clones into the state object
//     alone: an empty buffer has no item and allocates nothing;
//   - a state with 5 nonempty inv-buffers and 2 nonempty resp-buffers
//     clones into the state object plus one item vector per buffer table,
//     whatever its payloads: list payloads are shared, not copied.
//
// Standalone (no test framework): the counting global operator new must
// see only the allocations of the clones under test.
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

namespace {

bool cloneWithin(const boosting::ioa::AutomatonState& s, std::size_t max,
                 const char* what) {
  const std::size_t before = g_allocations;
  auto copy = s.clone();
  const std::size_t made = g_allocations - before;
  if (!copy->equals(s)) {
    std::fprintf(stderr, "clone of %s differs from the original\n", what);
    return false;
  }
  std::printf("clone of %s: %zu allocations (max %zu)\n", what, made, max);
  return made <= max;
}

}  // namespace

int main() {
  using boosting::ioa::Action;
  using boosting::services::CanonicalAtomicObject;
  using boosting::util::sym;
  using boosting::util::Value;
  const CanonicalAtomicObject obj(boosting::types::binaryConsensusType(), 100,
                                  {0, 1, 2, 3, 4, 5, 6}, 1);
  const auto initial = obj.initialState();
  bool ok = cloneWithin(*initial, 1, "the initial 7-endpoint state");

  // Endpoints 0..4 invoke (two pipelined proposals at 0 and 1, with long
  // and nested payloads); 0 and 1 are then performed, which queues their
  // responses.
  auto busy = obj.initialState();
  const Value nested = Value::list(
      {sym("init", 1), Value("a payload string too long for SSO"),
       Value::set({Value(1), Value(2), Value(3)})});
  for (int i = 0; i <= 4; ++i) {
    obj.apply(*busy, Action::invoke(i, 100, sym("init", i % 2)));
  }
  obj.apply(*busy, Action::invoke(0, 100, nested));
  obj.apply(*busy, Action::invoke(1, 100, nested));
  obj.apply(*busy, Action::perform(0, 100));
  obj.apply(*busy, Action::perform(1, 100));
  const auto& st = CanonicalAtomicObject::stateOf(*busy);
  int invQueues = 0;
  int respQueues = 0;
  for (int i = 0; i < 7; ++i) {
    invQueues += st.invBuf[i].empty() ? 0 : 1;
    respQueues += st.respBuf[i].empty() ? 0 : 1;
  }
  if (invQueues != 5 || respQueues != 2) {
    std::fprintf(stderr, "expected 5 inv and 2 resp queues, got %d and %d\n",
                 invQueues, respQueues);
    return 1;
  }
  ok = cloneWithin(*busy, 3, "a state with 5 inv and 2 resp queues") && ok;
  return ok ? 0 : 1;
}
