#include "core/forecast_cache.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"

namespace ranknet::core {

namespace {

/// "forecast_cache.*" metrics, resolved once per process and shared by every
/// cache instance.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* insertions;
  obs::Counter* evictions;
  CacheMetrics() {
    auto& reg = obs::Registry::instance();
    hits = &reg.counter("forecast_cache.hits");
    misses = &reg.counter("forecast_cache.misses");
    insertions = &reg.counter("forecast_cache.insertions");
    evictions = &reg.counter("forecast_cache.evictions");
  }
};

const CacheMetrics& metrics() {
  static const CacheMetrics m;
  return m;
}

}  // namespace

ForecastCache::ForecastCache(std::size_t capacity, std::size_t stripes)
    : capacity_(capacity == 0 ? 1 : capacity) {
  const std::size_t n = stripes == 0 ? 1 : stripes;
  // Distribute capacity so the per-stripe bounds SUM to the configured
  // total: the first (capacity % n) stripes get one extra slot. Every
  // stripe keeps a >= 1 floor — the documented capacity < stripes
  // exception where the total bound becomes n (see header).
  stripe_capacity_.resize(n);
  const std::size_t base = capacity_ / n;
  const std::size_t extra = capacity_ % n;
  for (std::size_t i = 0; i < n; ++i) {
    stripe_capacity_[i] = std::max<std::size_t>(1, base + (i < extra ? 1 : 0));
  }
  stripes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::size_t ForecastCache::stripe_of(const ForecastCacheKey& key) const {
  // Remix the key hash before taking the modulus: the unordered_map inside
  // each stripe buckets by the same hash, and reusing the low bits for both
  // decisions would correlate stripe choice with bucket occupancy.
  std::uint64_t h = key.hash();
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h % stripes_.size());
}

std::optional<RaceSamples> ForecastCache::get(const ForecastCacheKey& key) {
  Stripe& s = stripe_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    metrics().misses->add(1);
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  metrics().hits->add(1);
  return it->second->second;  // deep copy out
}

void ForecastCache::put(const ForecastCacheKey& key, const RaceSamples& value) {
  const std::size_t idx = stripe_of(key);
  Stripe& s = *stripes_[idx];
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->second = value;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  while (s.lru.size() >= stripe_capacity_[idx]) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    metrics().evictions->add(1);
  }
  s.lru.emplace_front(key, value);
  s.index.emplace(key, s.lru.begin());
  metrics().insertions->add(1);
}

std::size_t ForecastCache::size() const {
  std::size_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    total += s->lru.size();
  }
  return total;
}

void ForecastCache::clear() {
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    s->lru.clear();
    s->index.clear();
  }
}

}  // namespace ranknet::core
