// Process-wide observability registry: named counters, gauges and
// fixed-bucket latency histograms, exported as JSON or Prometheus text.
//
// This is the single place the serving stack reads its health from. Each
// booking module (workspace arenas, the forecast cache, the forecast engine
// and its degradation ladder, the RankNet decode tree, the fleet and the
// server) resolves its handles here once and books into them directly;
// tensor::OpCounters is the one remaining shim whose storage lives here.
// The pipeline trace spans (obs/trace.hpp) book their stage latencies into
// registry histograms, so one snapshot covers kernels, arenas, the engine,
// the degradation ladder and the pipeline stages at once. Readers (tests,
// benches, the Prometheus export) look metrics up by name.
//
// Hot-path contract: incrementing an existing metric is one relaxed atomic
// RMW (Counter::add / Histogram bucket add) or a CAS loop for double sums
// (Gauge::add) — no locks, no allocation, no name lookup. Name lookup
// happens only at registration (find-or-create under a mutex); callers on
// hot paths resolve their handles once and keep the reference, which stays
// valid for the life of the process (metrics are never removed, only
// reset to zero).
//
// Export determinism: metrics are stored in name-sorted maps, so repeated
// exports of the same state produce byte-identical text — the golden
// snapshot test in tests/test_obs.cpp relies on this.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ranknet::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // One counter per cache line: kernel-accounting counters are bumped from
  // every pool worker at once, and false sharing there is a real slowdown.
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Double-valued metric supporting set / add / record_max. Used for
/// accumulated seconds and high-water marks.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  void record_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus-style cumulative-le semantics on
/// export; storage is per-bucket). Bucket i counts samples with
/// v <= bounds[i]; samples above the last bound land in the implicit +Inf
/// bucket. observe() is a linear scan over a handful of bounds plus one
/// relaxed add — no locks.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    add_sum(v);
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) {
        buckets_[i].fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    overflow_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Approximate quantile by linear interpolation inside the bucket that
  /// crosses rank q*count (upper-bounded by the last finite bound).
  double approx_quantile(double q) const;
  void reset();

 private:
  void add_sum(double v) {
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket bounds (seconds): 1µs .. 10s, decade-and-half
/// spaced. Suits everything from a kernel call to a full evaluation pass.
std::span<const double> latency_buckets();

class Registry {
 public:
  /// The process-wide registry every subsystem books into.
  static Registry& instance();

  /// Find-or-create by name. References stay valid forever; resolve once on
  /// hot paths. Names use dotted lowercase ("engine.forecasts"); the
  /// Prometheus export maps '.' to '_' under a "ranknet_" prefix.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consulted only on first registration; later calls
  /// with the same name return the existing histogram.
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds);
  Histogram& latency_histogram(std::string_view name) {
    return histogram(name, latency_buckets());
  }

  /// Zero every metric, keeping registrations (handles stay valid).
  void reset();

  /// JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}, name-sorted within each section.
  std::string to_json() const;
  /// Prometheus text exposition (counter / gauge / histogram metric
  /// families, cumulative-le buckets, name-sorted).
  std::string to_prometheus() const;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  mutable std::mutex mutex_;  // guards registration and export, not updates
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ranknet::obs
