// ForecastServer: the overload-hardened serving front end.
//
// Two threads, each with one job:
//   * I/O thread — accept, per-connection frame reassembly, and *admission
//     control*: every incoming forecast request is admitted (possibly at a
//     degraded tier), explicitly rejected, or its whole connection dropped
//     (slow-client guard) the moment it is parsed. Nothing unbounded ever
//     reaches the compute side.
//   * worker thread — takes admitted requests, at most batch_max minus the
//     requests already dispatched and unanswered, groups the compatible
//     ones (same race/origin/horizon/samples/seed) into one engine call
//     each (cross-request micro-batching; duplicates ride the forecast
//     cache for free), routes each group to the active model's RaceShard
//     by race id (core/fleet_engine.hpp) and runs it on that shard's
//     driver — so groups for different races compute concurrently, each
//     armed with its group's tightest remaining budget, while per-shard
//     engine state stays single-writer. Each group answers as soon as it
//     is done; the worker holds its model and shard pins in an in-flight
//     list until then and takes more work as groups finish, so a slow
//     group holds back only its own shard. A swap or stop() first waits
//     for every in-flight group, which keeps swap-vs-serve ordering
//     deterministic.
//
// Race lookups are admission-time only: the io thread resolves the race to
// an immutable RaceLog snapshot from the bucket-sharded RaceTable and
// pins it in the queued request, so the worker hot path takes no race-table
// lock at all (serve/race_table.hpp).
//
// Overload policy (the degradation ladder, serving-side):
//   queue full            -> Tier::kRejected   (kUnavailable, immediate)
//   queue over watermark  -> degraded admission: answered from the forecast
//                            cache if possible, else the fallback model
//                            (Tier::kCached / Tier::kFallback)
//   deadline gone in queue-> Tier::kRejected   (kDeadlineExceeded)
//   normal                -> engine ladder: kFull, or kPartial when the
//                            per-request budget ran out mid-forecast
// Degradation is monotone in load and every shed is an explicit response —
// the soak test's core assertions.
//
// Frame-level robustness: a checksum-corrupt payload skips one frame and
// keeps the connection; a bad magic/version kills the connection; a
// connection holding a partial frame with no progress for
// slow_client_timeout_seconds is dropped. All booked in "serve.*" metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/race_table.hpp"
#include "serve/wire.hpp"
#include "telemetry/race_log.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace ranknet::serve {

struct ServerConfig {
  std::string socket_path;
  /// Admitted-but-unserved requests the queue will hold; arrivals beyond
  /// this are shed with an explicit rejection.
  std::size_t queue_capacity = 128;
  /// Queue depth at which admission degrades to cache/fallback-only.
  std::size_t overload_watermark = 96;
  /// Max requests one worker iteration coalesces, and the cap on requests
  /// dispatched to the shards but not yet answered.
  std::size_t batch_max = 16;
  /// Deadline applied when a request carries none (microseconds).
  std::uint32_t default_deadline_us = 100000;
  /// Hard ceiling on any requested deadline.
  std::uint32_t max_deadline_us = 2000000;
  /// A connection holding a partial frame with no progress for this long
  /// is dropped (stalled-client guard).
  double slow_client_timeout_seconds = 0.25;
  /// Budget for writing one response before the client is declared slow.
  double write_timeout_seconds = 0.5;
  std::size_t max_connections = 64;
};

class ForecastServer {
 public:
  /// The registry must outlive the server and have been init()ed before
  /// requests arrive (requests before that are rejected, not crashed).
  ForecastServer(ModelRegistry& registry, ServerConfig config);
  ~ForecastServer();

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  /// Bind the socket and start both threads.
  util::Status start();
  /// Stop, drain the queue with explicit rejections, join, unlink.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Server-side race preload (tests/benches); clients use kLoadRace.
  void add_race(telemetry::RaceLog race);

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    util::UnixStream stream;
    std::vector<std::uint8_t> buf;  // frame reassembly
    Clock::time_point last_progress;
    std::mutex write_mutex;  // io thread (acks) vs worker (responses)
    std::atomic<bool> dead{false};
  };

  struct Pending {
    std::shared_ptr<Conn> conn;
    wire::ForecastRequest req;
    /// Race snapshot pinned at admission: the worker never re-locks the
    /// race table, and a concurrent add_race cannot change the state this
    /// request is answered against.
    std::shared_ptr<const telemetry::RaceLog> race;
    Clock::time_point arrival;
    Clock::time_point deadline;
    bool degraded = false;  // admitted above the watermark
  };

  struct AdminOp {
    std::shared_ptr<Conn> conn;
    wire::SwapRequest swap;
  };

  void io_loop();
  void worker_loop();

  /// Parse every complete frame in conn->buf; returns false when the
  /// connection must be dropped (framing no longer trustworthy).
  bool drain_frames(const std::shared_ptr<Conn>& conn);
  void handle_forecast_frame(const std::shared_ptr<Conn>& conn,
                             std::span<const std::uint8_t> payload);
  void handle_load_race(const std::shared_ptr<Conn>& conn,
                        std::span<const std::uint8_t> payload);

  /// serve.shard.<i>.* handles. The worker resolves them the first time
  /// it routes a group to shard i and passes them to the group's job.
  struct ShardMetrics {
    obs::Counter* groups = nullptr;
    obs::Counter* requests = nullptr;
  };

  /// Serve one micro-batch group (identical request parameters) with one
  /// engine call on `shard`; `members` all receive the same payload under
  /// their own request ids. Runs on the shard's driver thread (or the
  /// worker thread itself when no model/shard is available to route to —
  /// then `shard` is null). The worker's in-flight entry for the group pins
  /// `model` and `shard` until the job returns, so raw pointers are safe
  /// here and the job never owns the shard (RaceShard::submit's lifetime
  /// contract). `shard_m` holds `shard`'s handles.
  void process_group(std::vector<Pending>& members, const ServingModel* model,
                     core::RaceShard* shard, ShardMetrics shard_m);
  void respond(const std::shared_ptr<Conn>& conn,
               const wire::ForecastResponse& response);
  void send_frame(const std::shared_ptr<Conn>& conn, wire::FrameType type,
                  std::span<const std::uint8_t> payload);
  void reject(const Pending& item, util::Status status);

  ModelRegistry& registry_;
  ServerConfig config_;

  util::UnixListener listener_;
  std::thread io_thread_;
  std::thread worker_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::vector<std::shared_ptr<Conn>> conns_;  // io thread only

  RaceTable races_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::deque<AdminOp> admin_;

  // serve.* metric handles, resolved once in the constructor.
  struct Metrics {
    obs::Counter* conns_accepted;
    obs::Counter* conns_rejected;
    obs::Counter* conns_slow_dropped;
    obs::Counter* frames_received;
    obs::Counter* frames_corrupt_skipped;
    obs::Counter* frames_bad_header;
    obs::Counter* requests_received;
    obs::Counter* requests_bad;
    obs::Counter* shed_queue_full;
    obs::Counter* admitted_degraded;
    obs::Counter* unknown_race;
    obs::Counter* expired_in_queue;
    obs::Counter* tier_full;
    obs::Counter* tier_cached;
    obs::Counter* tier_partial;
    obs::Counter* tier_fallback;
    obs::Counter* tier_rejected;
    obs::Counter* batch_groups;
    obs::Counter* batch_dedup_hits;
    obs::Counter* write_failures;
    obs::Histogram* request_latency;  // seconds, admission -> response sent
    obs::Histogram* batch_size;       // requests per worker iteration
  } m_;
};

}  // namespace ranknet::serve
