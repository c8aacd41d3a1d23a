#include "serve/cache.h"

#include <functional>

#include "serve/candidates.h"

namespace boosting::serve {

namespace {

const char* symmetryModeName(analysis::SymmetryMode m) {
  switch (m) {
    case analysis::SymmetryMode::Auto: return "auto";
    case analysis::SymmetryMode::On: return "on";
    case analysis::SymmetryMode::Off: return "off";
  }
  return "?";
}

const char* porModeName(analysis::PorMode m) {
  switch (m) {
    case analysis::PorMode::Auto: return "auto";
    case analysis::PorMode::On: return "on";
    case analysis::PorMode::Off: return "off";
  }
  return "?";
}

}  // namespace

std::string ServiceKey::str() const {
  return candidate + "/n" + std::to_string(n) + "/f" + std::to_string(f) +
         "/sym-" + symmetryModeName(symmetry) + "/por-" + porModeName(por);
}

std::size_t ServiceKeyHash::operator()(const ServiceKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.candidate);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(k.n));
  mix(static_cast<std::size_t>(k.f));
  mix(static_cast<std::size_t>(k.symmetry));
  mix(static_cast<std::size_t>(k.por));
  return h;
}

ServiceContextPool::Lease::Lease(Lease&& o) noexcept
    : pool_(o.pool_), ctx_(o.ctx_) {
  o.pool_ = nullptr;
  o.ctx_ = nullptr;
}

ServiceContextPool::Lease::~Lease() {
  if (pool_) pool_->release(ctx_);
}

std::optional<ServiceContextPool::Lease> ServiceContextPool::acquire(
    const ServiceKey& key, std::string* buildError) {
  if (maxContexts_ == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(m_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& e = it->second;
    if (e.leased) {
      ++stats_.bypasses;
      return std::nullopt;
    }
    e.leased = true;
    if (e.inLru) {
      lru_.erase(e.lruPos);
      e.inLru = false;
    }
    ++stats_.reuses;
    return Lease(this, e.ctx.get());
  }
  // Cold: build the context inside the lock. Builds are rare (one per
  // service type) and cheap next to the exploration they amortize, so a
  // finer-grained build-outside-lock dance isn't worth its complexity.
  auto ctx = std::make_unique<ServiceContext>();
  ctx->key = key;
  ctx->system = buildCandidateSystem(key.candidate, key.n, key.f, buildError);
  if (!ctx->system) return std::nullopt;
  ctx->memo = std::make_shared<analysis::TransitionCache>(*ctx->system);
  Entry e;
  e.ctx = std::move(ctx);
  e.leased = true;
  ServiceContext* raw = e.ctx.get();
  entries_.emplace(key, std::move(e));
  ++stats_.builds;
  evictIdleOverCapLocked();
  return Lease(this, raw);
}

void ServiceContextPool::release(ServiceContext* ctx) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = entries_.find(ctx->key);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  e.leased = false;
  ++ctx->jobsServed;
  lru_.push_front(ctx->key);
  e.lruPos = lru_.begin();
  e.inLru = true;
  evictIdleOverCapLocked();
}

void ServiceContextPool::evictIdleOverCapLocked() {
  // Soft cap: only idle (unleased) contexts are evictable, oldest first.
  while (entries_.size() > maxContexts_ && !lru_.empty()) {
    const ServiceKey victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it == entries_.end()) continue;
    entries_.erase(it);
    ++stats_.evictions;
  }
}

ServiceContextPool::Stats ServiceContextPool::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

std::size_t ServiceContextPool::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return entries_.size();
}

}  // namespace boosting::serve
