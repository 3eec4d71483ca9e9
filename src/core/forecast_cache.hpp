// Bounded LRU cache over complete race forecasts, keyed by a compact
// race-state digest — the serving-side answer to "the same race state is
// forecast over and over" (every subscribed user asks for the same
// (race, origin) forecast within a cadence window; see ROADMAP).
//
// Correctness contract: a hit must return bytes identical to the cold
// compute it replaced. That is only sound because a forecast is a pure
// function of the cache key's fields:
//   * race digest   — FNV-1a over the full per-car telemetry series (rank,
//                     lap/track status, lap times). Covers both the encoder
//                     prefix and the oracle future covariates, so any
//                     telemetry change — past or future lap — changes the
//                     key.
//   * origin/horizon/num_samples — the forecast request itself.
//   * base          — the rng stream base the engine drew for this
//                     forecast; all sample noise is keyed from it.
//   * model_version — the serving layer's token for "these weights"; the
//                     engine defaults it to a digest of the forecaster
//                     name, and callers must bump it when weights change
//                     under the same name (ParallelForecastEngine::
//                     set_model_version).
//   * kernel_variant — tensor::kernels::active_variant(): scalar and avx2
//                     results differ by reassociation ULPs, so they must
//                     never share an entry.
//
// Thread safety: every method is safe to call concurrently (the engine
// pool's workers and multiple engines may share one cache). The store is
// lock-striped: keys are partitioned across `stripes` independent
// (mutex, LRU list, index) units by a remix of the key hash, so concurrent
// shards hitting different stripes never contend on one global mutex. With
// the default single stripe the semantics are exactly the pre-striping
// global LRU. Capacity is split evenly across stripes (eviction is
// per-stripe LRU — a globally-exact LRU order is traded for lock
// independence). Hits, misses, insertions and evictions are booked straight
// into the process-wide obs::Registry ("forecast_cache.*", one relaxed
// atomic per event, summed over every cache instance); the accounting
// identity
//   insertions - evictions == size()   and   hits + misses == gets
// holds exactly even under fully concurrent mixed access
// (tests/test_forecast_cache.cpp, StripedAccountingExactUnderConcurrency).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/forecaster.hpp"
#include "util/fnv1a.hpp"

namespace ranknet::core {

/// The shared FNV-1a hasher (util/fnv1a.hpp), also reachable as
/// core::Fnv1a for the digests core and its callers compute.
using util::Fnv1a;

struct ForecastCacheKey {
  std::uint64_t race_digest = 0;
  std::uint64_t base = 0;           // engine's rng stream base
  std::uint64_t model_version = 0;  // weights token (see header comment)
  int origin_lap = 0;
  int horizon = 0;
  int num_samples = 0;
  int kernel_variant = 0;  // tensor::kernels::Variant as int

  bool operator==(const ForecastCacheKey&) const = default;
  std::uint64_t hash() const {
    Fnv1a h;
    h.update_u64(race_digest);
    h.update_u64(base);
    h.update_u64(model_version);
    h.update_u64(static_cast<std::uint64_t>(origin_lap));
    h.update_u64(static_cast<std::uint64_t>(horizon));
    h.update_u64(static_cast<std::uint64_t>(num_samples));
    h.update_u64(static_cast<std::uint64_t>(kernel_variant));
    return h.digest();
  }
};

class ForecastCache {
 public:
  /// `capacity` bounds the total number of cached forecasts (at least 1),
  /// distributed across `stripes` independent LRU partitions so the
  /// per-stripe bounds sum to `capacity`. Every stripe keeps at least one
  /// slot, so when capacity < stripes the total bound is `stripes` instead
  /// (a heavily-striped tiny cache still caches something on every
  /// stripe). `stripes` = 1 (the default) reproduces the original
  /// single-mutex global-LRU behaviour exactly.
  explicit ForecastCache(std::size_t capacity = 64, std::size_t stripes = 1);

  /// Deep copy out on hit (the cached bytes stay untouched, so every hit
  /// returns the exact bytes of the original cold compute); nullopt on
  /// miss. Refreshes the entry's LRU position within its stripe.
  std::optional<RaceSamples> get(const ForecastCacheKey& key);

  /// Insert (or refresh) a forecast; evicts the stripe's least-recently-
  /// used entry when the stripe is full. Values are deep-copied in.
  void put(const ForecastCacheKey& key, const RaceSamples& value);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t stripes() const { return stripes_.size(); }
  /// Which stripe a key lives in — a pure function of the key, exposed so
  /// tests can prove partitioning is stable.
  std::size_t stripe_of(const ForecastCacheKey& key) const;
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const ForecastCacheKey& k) const {
      return static_cast<std::size_t>(k.hash());
    }
  };
  using Entry = std::pair<ForecastCacheKey, RaceSamples>;

  struct Stripe {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<ForecastCacheKey, std::list<Entry>::iterator, KeyHash>
        index;
  };

  Stripe& stripe_for(const ForecastCacheKey& key) {
    return *stripes_[stripe_of(key)];
  }

  std::size_t capacity_;  // total, across all stripes
  // Per-stripe bounds summing to capacity_ (floor/remainder split). Every
  // stripe keeps a >= 1 floor, so when capacity < stripes the effective
  // total is `stripes` — the documented exception to the total bound. The
  // previous ceil(capacity/stripes)-for-all split overshot the configured
  // capacity whenever capacity % stripes != 0 (capacity=10, stripes=8
  // admitted 16 entries).
  std::vector<std::size_t> stripe_capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace ranknet::core
