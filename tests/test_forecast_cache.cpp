// ForecastCache unit & concurrency suite.
//
// Unit half: LRU mechanics (eviction order, refresh-on-hit, capacity
// clamp), key discrimination field by field, digest stability, and counter
// bookkeeping. Concurrency half: hammer one cache from many threads with
// mixed get/put/clear traffic so the TSan preset (RANKNET_SANITIZE=thread,
// ctest label "cache") can prove the single-mutex design race-free; the
// same test doubles as a value-integrity check in regular builds — a hit
// must always return the exact bytes that were put.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/forecast_cache.hpp"
#include "obs/metrics.hpp"
#include "simulator/season.hpp"
#include "telemetry/race_log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ranknet;

core::RaceSamples make_samples(double seed, std::size_t cars = 2,
                               std::size_t rows = 3, std::size_t cols = 4) {
  core::RaceSamples out;
  for (std::size_t car = 0; car < cars; ++car) {
    tensor::Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m(r, c) = seed + static_cast<double>(car * 100 + r * 10 + c);
      }
    }
    out[static_cast<int>(car) + 1] = std::move(m);
  }
  return out;
}

bool same_bytes(const core::RaceSamples& a, const core::RaceSamples& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [car, m] : a) {
    const auto it = b.find(car);
    if (it == b.end()) return false;
    const auto& n = it->second;
    if (m.rows() != n.rows() || m.cols() != n.cols()) return false;
    if (std::memcmp(m.flat().data(), n.flat().data(),
                    m.flat().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

core::ForecastCacheKey key(std::uint64_t base) {
  core::ForecastCacheKey k;
  k.race_digest = 0xfeedULL;
  k.base = base;
  k.model_version = 1;
  k.origin_lap = 50;
  k.horizon = 5;
  k.num_samples = 9;
  k.kernel_variant = 0;
  return k;
}

TEST(ForecastCache, HitReturnsExactBytesAndMissReturnsNullopt) {
  core::ForecastCache cache(4);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(key(1)).has_value());

  const auto value = make_samples(0.5);
  cache.put(key(1), value);
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.get(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same_bytes(*hit, value));
  // The stored copy is independent of the caller's copy-out.
  const auto hit2 = cache.get(key(1));
  ASSERT_TRUE(hit2.has_value());
  EXPECT_TRUE(same_bytes(*hit2, value));
}

TEST(ForecastCache, KeyDiscriminatesEveryField) {
  core::ForecastCache cache(32);
  cache.put(key(1), make_samples(1.0));

  auto probe = [&cache](core::ForecastCacheKey k) {
    return cache.get(k).has_value();
  };
  EXPECT_TRUE(probe(key(1)));
  {
    auto k = key(1);
    k.race_digest ^= 1;
    EXPECT_FALSE(probe(k));
  }
  {
    auto k = key(1);
    k.base ^= 1;
    EXPECT_FALSE(probe(k));
  }
  {
    auto k = key(1);
    k.model_version ^= 1;
    EXPECT_FALSE(probe(k));
  }
  {
    auto k = key(1);
    k.origin_lap += 1;
    EXPECT_FALSE(probe(k));
  }
  {
    auto k = key(1);
    k.horizon += 1;
    EXPECT_FALSE(probe(k));
  }
  {
    auto k = key(1);
    k.num_samples += 1;
    EXPECT_FALSE(probe(k));
  }
  {
    auto k = key(1);
    k.kernel_variant += 1;  // scalar vs avx2 must never share an entry
    EXPECT_FALSE(probe(k));
  }
}

TEST(ForecastCache, EvictsLeastRecentlyUsed) {
  core::ForecastCache cache(2);
  cache.put(key(1), make_samples(1.0));
  cache.put(key(2), make_samples(2.0));
  // Touch key(1) so key(2) becomes the LRU entry.
  EXPECT_TRUE(cache.get(key(1)).has_value());
  cache.put(key(3), make_samples(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get(key(1)).has_value());
  EXPECT_FALSE(cache.get(key(2)).has_value());  // evicted
  EXPECT_TRUE(cache.get(key(3)).has_value());
}

TEST(ForecastCache, PutRefreshesExistingEntry) {
  core::ForecastCache cache(2);
  cache.put(key(1), make_samples(1.0));
  cache.put(key(2), make_samples(2.0));
  // Re-putting key(1) refreshes both its value and its LRU slot without
  // growing the cache.
  cache.put(key(1), make_samples(9.0));
  EXPECT_EQ(cache.size(), 2u);
  const auto hit = cache.get(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same_bytes(*hit, make_samples(9.0)));
  cache.put(key(3), make_samples(3.0));
  EXPECT_FALSE(cache.get(key(2)).has_value());  // key(2) was the LRU
  EXPECT_TRUE(cache.get(key(1)).has_value());
}

TEST(ForecastCache, CapacityClampsToOneAndClearEmpties) {
  core::ForecastCache cache(0);  // clamped up to 1
  EXPECT_EQ(cache.capacity(), 1u);
  cache.put(key(1), make_samples(1.0));
  cache.put(key(2), make_samples(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.get(key(1)).has_value());
  EXPECT_TRUE(cache.get(key(2)).has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(key(2)).has_value());
}

TEST(ForecastCache, CountersTrackHitsMissesInsertsEvictions) {
  auto& reg = obs::Registry::instance();
  auto& hits = reg.counter("forecast_cache.hits");
  auto& misses = reg.counter("forecast_cache.misses");
  auto& insertions = reg.counter("forecast_cache.insertions");
  auto& evictions = reg.counter("forecast_cache.evictions");
  for (obs::Counter* c : {&hits, &misses, &insertions, &evictions}) {
    c->reset();
  }
  core::ForecastCache cache(1);

  EXPECT_FALSE(cache.get(key(1)).has_value());
  EXPECT_EQ(misses.value(), 1u);
  cache.put(key(1), make_samples(1.0));
  EXPECT_EQ(insertions.value(), 1u);
  EXPECT_TRUE(cache.get(key(1)).has_value());
  EXPECT_EQ(hits.value(), 1u);
  cache.put(key(2), make_samples(2.0));  // evicts key(1)
  EXPECT_EQ(evictions.value(), 1u);
  EXPECT_EQ(insertions.value(), 2u);
}

TEST(ForecastCacheDigest, RaceStateDigestSeesEveryLap) {
  const auto race = sim::simulate_race({"Indy500", 2019, 200,
                                        sim::Usage::kTest});
  const auto other = sim::simulate_race({"Indy500", 2019, 201,
                                         sim::Usage::kTest});
  EXPECT_EQ(race.digest(), race.digest());
  EXPECT_NE(race.digest(), other.digest());
}

TEST(ForecastCacheKeyHash, DistinctFieldsDistinctHashes) {
  // Not a collision-freedom proof, just a smoke check that hash() mixes
  // every field (equal hashes for these near-miss keys would be a bug).
  const auto h0 = key(1).hash();
  auto k = key(1);
  k.kernel_variant = 1;
  EXPECT_NE(h0, k.hash());
  k = key(1);
  k.num_samples = 10;
  EXPECT_NE(h0, k.hash());
  EXPECT_EQ(h0, key(1).hash());
}

// ---------------------------------------------------------------------------
// Concurrency stress: the ctest "cache" label runs this under
// RANKNET_SANITIZE=thread. Mixed readers/writers over a deliberately tiny
// cache maximize eviction churn (the most race-prone path: splice + erase
// while another thread walks the same list).

TEST(ForecastCacheStress, ConcurrentGetPutEvictClear) {
  core::ForecastCache cache(4);  // small -> constant eviction pressure
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  constexpr int kKeySpace = 12;  // 3x capacity

  // Pre-built values, one per key, so integrity is checkable: a hit for
  // key i must carry value i's bytes.
  std::vector<core::RaceSamples> values;
  values.reserve(kKeySpace);
  for (int i = 0; i < kKeySpace; ++i) {
    values.push_back(make_samples(static_cast<double>(i)));
  }

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> corruptions{0};
  util::ThreadPool pool(kThreads);
  std::vector<std::future<void>> futures;
  for (int t = 0; t < kThreads; ++t) {
    futures.push_back(pool.submit([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = static_cast<int>(rng() % kKeySpace);
        const auto k = key(static_cast<std::uint64_t>(i));
        switch (rng() % 8) {
          case 0:
            cache.put(k, values[static_cast<std::size_t>(i)]);
            break;
          case 1:
            if (op % 97 == 0) cache.clear();
            break;
          default: {
            auto hit = cache.get(k);
            if (hit.has_value()) {
              hits.fetch_add(1, std::memory_order_relaxed);
              if (!same_bytes(*hit, values[static_cast<std::size_t>(i)])) {
                corruptions.fetch_add(1, std::memory_order_relaxed);
              }
            }
            break;
          }
        }
      }
    }));
  }
  for (auto& f : futures) f.get();

  EXPECT_EQ(corruptions.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  // With 8 threads re-reading a 12-key space, some hits must land.
  EXPECT_GT(hits.load(), 0u);
}

// ---------------------------------------------------------------------------
// Lock striping (the fleet's cache partitioning). A striped cache must keep
// the single-stripe semantics per key — stable partition, exact byte
// replay, bounded size — and its global counters must stay EXACTLY
// consistent under concurrency, not just approximately.

TEST(ForecastCacheStriped, StripeOfIsPureAndInRange) {
  core::ForecastCache cache(64, /*stripes=*/8);
  EXPECT_EQ(cache.stripes(), 8u);
  for (std::uint64_t b = 0; b < 256; ++b) {
    const auto k = key(b);
    const auto s = cache.stripe_of(k);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, cache.stripe_of(k));  // pure function of the key
  }
  // Single stripe: everything maps to stripe 0 (legacy layout).
  core::ForecastCache single(64);
  EXPECT_EQ(single.stripes(), 1u);
  EXPECT_EQ(single.stripe_of(key(123)), 0u);
}

TEST(ForecastCacheStriped, KeysActuallySpreadAcrossStripes) {
  core::ForecastCache cache(64, /*stripes=*/8);
  std::vector<int> occupancy(8, 0);
  for (std::uint64_t b = 0; b < 256; ++b) {
    occupancy[cache.stripe_of(key(b))]++;
  }
  // The remixed hash must not collapse; every stripe sees some keys.
  for (int n : occupancy) EXPECT_GT(n, 0);
}

TEST(ForecastCacheStriped, HitReplaysExactBytesAndSizeStaysBounded) {
  core::ForecastCache cache(8, /*stripes=*/4);
  EXPECT_EQ(cache.capacity(), 8u);
  for (std::uint64_t b = 0; b < 64; ++b) {
    cache.put(key(b), make_samples(static_cast<double>(b)));
  }
  // Per-stripe LRU: total occupancy never exceeds total capacity.
  EXPECT_LE(cache.size(), cache.capacity());
  // Whatever survived must replay exact bytes.
  std::size_t hits = 0;
  for (std::uint64_t b = 0; b < 64; ++b) {
    if (auto hit = cache.get(key(b))) {
      ++hits;
      EXPECT_TRUE(same_bytes(*hit, make_samples(static_cast<double>(b))));
    }
  }
  EXPECT_GT(hits, 0u);
}

// The fleet satellite's regression test: 8 threads (one per "shard")
// hammering one striped cache with mixed get/put, and the global
// forecast_cache.* counters must balance EXACTLY afterwards:
//   hits + misses == gets issued      (every get books exactly one)
//   insertions - evictions == size()  (every insert/evict books exactly one;
//                                      no clear() in this test)
// A lost or double-counted event under stripe concurrency fails this test
// deterministically, whatever the interleaving.
TEST(ForecastCacheStriped, StripedAccountingExactUnderConcurrency) {
  core::ForecastCache cache(16, /*stripes=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  constexpr int kKeySpace = 48;  // 3x capacity -> steady eviction churn

  std::vector<core::RaceSamples> values;
  values.reserve(kKeySpace);
  for (int i = 0; i < kKeySpace; ++i) {
    values.push_back(make_samples(static_cast<double>(i)));
  }

  auto& reg = obs::Registry::instance();
  const auto count = [&reg](const char* name) {
    return reg.counter(name).value();
  };
  const auto hits0 = count("forecast_cache.hits");
  const auto misses0 = count("forecast_cache.misses");
  const auto inserts0 = count("forecast_cache.insertions");
  const auto evicts0 = count("forecast_cache.evictions");

  std::atomic<std::uint64_t> gets{0};
  util::ThreadPool pool(kThreads);
  std::vector<std::future<void>> futures;
  for (int t = 0; t < kThreads; ++t) {
    futures.push_back(pool.submit([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 99);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = static_cast<int>(rng() % kKeySpace);
        const auto k = key(static_cast<std::uint64_t>(i));
        if (rng() % 3 == 0) {
          cache.put(k, values[static_cast<std::size_t>(i)]);
        } else {
          gets.fetch_add(1, std::memory_order_relaxed);
          (void)cache.get(k);
        }
      }
    }));
  }
  for (auto& f : futures) f.get();

  const auto hits = count("forecast_cache.hits") - hits0;
  const auto misses = count("forecast_cache.misses") - misses0;
  const auto inserts = count("forecast_cache.insertions") - inserts0;
  const auto evicts = count("forecast_cache.evictions") - evicts0;
  EXPECT_EQ(hits + misses, gets.load());
  EXPECT_EQ(inserts - evicts, static_cast<std::uint64_t>(cache.size()));
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(inserts, 0u);
  EXPECT_GT(evicts, 0u);  // 3x key space must actually churn
}

// ---------------------------------------------------------------------------
// Striped-capacity regression suite. The original ctor gave every stripe
// ceil(capacity / stripes) slots, so any (capacity % stripes != 0) combo
// admitted more entries than configured — capacity=10, stripes=8 held 16.

// Fill far past capacity with keys that spread over all stripes; the cache
// must never hold more than the configured total (or, when capacity <
// stripes, more than one entry per stripe — the documented floor).
TEST(ForecastCacheStriped, TotalSizeNeverExceedsConfiguredCapacity) {
  const struct {
    std::size_t capacity, stripes;
  } combos[] = {{10, 8}, {1, 8}, {4, 3}, {7, 2}, {64, 7}, {8, 8}, {3, 16}};
  for (const auto& cfg : combos) {
    core::ForecastCache cache(cfg.capacity, cfg.stripes);
    for (std::uint64_t i = 0; i < 50 * (cfg.capacity + cfg.stripes); ++i) {
      cache.put(key(i), make_samples(static_cast<double>(i), 1, 1, 1));
    }
    const std::size_t bound = std::max(cfg.capacity, cfg.stripes);
    EXPECT_LE(cache.size(), bound)
        << "capacity=" << cfg.capacity << " stripes=" << cfg.stripes;
    if (cfg.capacity >= cfg.stripes) {
      // Enough keys hit every stripe to fill it, so the bound is tight.
      EXPECT_EQ(cache.size(), cfg.capacity)
          << "capacity=" << cfg.capacity << " stripes=" << cfg.stripes;
    }
  }
}

// Accounting identity at the exact capacity boundary of an uneven split
// (the satellite's "accounting identities at the new capacity boundary"):
// insertions - evictions == size() must hold through the fill, at the
// boundary, and through the post-boundary churn.
TEST(ForecastCacheStriped, AccountingIdentityAtCapacityBoundary) {
  auto& reg = obs::Registry::instance();
  const auto& insertions = reg.counter("forecast_cache.insertions");
  const auto& evictions = reg.counter("forecast_cache.evictions");
  core::ForecastCache cache(10, /*stripes=*/8);
  const auto inserts0 = insertions.value();
  const auto evicts0 = evictions.value();
  for (std::uint64_t i = 0; i < 500; ++i) {
    cache.put(key(i), make_samples(static_cast<double>(i), 1, 1, 1));
    EXPECT_EQ(insertions.value() - inserts0 - (evictions.value() - evicts0),
              static_cast<std::uint64_t>(cache.size()));
    EXPECT_LE(cache.size(), cache.capacity());
  }
}

// ---------------------------------------------------------------------------
// Digest canonicalization regression suite. update_double used to hash the
// raw bit pattern, so numerically identical race states whose doubles
// differed only as -0.0 vs 0.0 (or in NaN payload bits) digested
// differently and silently split cache entries.

TEST(ForecastCacheDigest, UpdateDoubleCanonicalizesSignedZero) {
  core::Fnv1a a, b;
  a.update_double(0.0);
  b.update_double(-0.0);
  EXPECT_EQ(a.digest(), b.digest());
  // Nonzero values must still hash their exact bits.
  core::Fnv1a c, d;
  c.update_double(1.0);
  d.update_double(std::nextafter(1.0, 2.0));
  EXPECT_NE(c.digest(), d.digest());
}

TEST(ForecastCacheDigest, UpdateDoubleCanonicalizesNanPayloads) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // A NaN with different payload bits (still a NaN after the bit surgery).
  std::uint64_t bits;
  std::memcpy(&bits, &qnan, sizeof(bits));
  bits ^= 0x5ull;  // perturb low mantissa bits, keep exponent all-ones
  double other_nan;
  std::memcpy(&other_nan, &bits, sizeof(other_nan));
  ASSERT_TRUE(std::isnan(other_nan));

  core::Fnv1a a, b;
  a.update_double(qnan);
  b.update_double(other_nan);
  EXPECT_EQ(a.digest(), b.digest());
  // ... but a NaN must not collide with a plain value.
  core::Fnv1a c;
  c.update_double(1.0);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(ForecastCacheDigest, RaceStateDigestIgnoresZeroSignInLapTimes) {
  // Two one-car, one-lap races identical except lap_time -0.0 vs 0.0 —
  // numerically the same race state must produce the same digest.
  telemetry::EventInfo info;
  info.name = "Unit";
  info.year = 2026;
  info.total_laps = 1;
  telemetry::LapRecord rec;
  rec.rank = 1;
  rec.car_id = 7;
  rec.lap = 1;
  rec.lap_time = 0.0;
  telemetry::RaceLog pos(info, {rec});
  rec.lap_time = -0.0;
  telemetry::RaceLog neg(info, {rec});
  EXPECT_EQ(pos.digest(), neg.digest());
}

}  // namespace
