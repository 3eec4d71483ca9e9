// Incremental 64-bit FNV-1a. Small and header-inline so the digest of a
// race, a covariate window, a wire payload or a cache key all share one
// definition. Lives in util so telemetry (RaceLog::digest) and core can both
// use it without telemetry depending on core.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ranknet::util {

class Fnv1a {
 public:
  void update_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ ^= static_cast<std::uint64_t>(p[i]);
      state_ *= kPrime;
    }
  }
  void update_u64(std::uint64_t v) { update_bytes(&v, sizeof(v)); }
  /// Hashes the bit pattern of the CANONICALIZED value: -0.0 hashes as
  /// 0.0 and every NaN as one canonical quiet NaN, so numerically
  /// identical race states digest identically (raw-bit hashing silently
  /// split cache entries on sign-of-zero / NaN-payload noise). Digest
  /// consumers that need byte-level resolution — the decode tree's branch
  /// grouping — already confirm digest matches with an exact bit
  /// comparison, so a canonicalization-induced digest merge can only group
  /// candidates, never wrongly share them.
  void update_double(double v) {
    if (v == 0.0) {
      v = 0.0;  // +0.0 == -0.0 compares true; hash the +0.0 bits for both
    } else if (std::isnan(v)) {
      v = std::numeric_limits<double>::quiet_NaN();
    }
    update_bytes(&v, sizeof(v));
  }
  std::uint64_t digest() const { return state_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace ranknet::util
