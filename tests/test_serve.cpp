// Forecast-serving front end: wire protocol strictness, the
// ForecastServer's admission/batching/degradation behaviour, client retry,
// and zero-downtime hot-swap with automatic rollback — all over real AF_UNIX
// sockets against a live server. This binary is also the `serve` sanitizer
// gate (serve-tsan and serve-asan presets): every test tears its server
// down cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.hpp"
#include "core/forecast_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/affine_model.hpp"
#include "serve/client.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "simulator/fault_injector.hpp"
#include "simulator/season.hpp"
#include "telemetry/stream_ingestor.hpp"
#include "test_support.hpp"
#include "util/fnv1a.hpp"
#include "util/socket.hpp"

namespace {

using namespace ranknet;
namespace wire = serve::wire;

std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

serve::ModelFactory affine_factory(int partition_delay_us = 0) {
  return [partition_delay_us](const std::string& path)
             -> util::Result<std::shared_ptr<core::RaceForecaster>> {
    auto model = std::make_shared<serve::AffineRankModel>();
    if (auto st = model->load_artifact(path); !st.ok()) return st;
    model->set_partition_delay_us(partition_delay_us);
    return std::shared_ptr<core::RaceForecaster>(std::move(model));
  };
}

/// Spins until the named counter reaches `target`; false after 10 s.
bool wait_for_counter(const char* name, std::uint64_t target) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter_value(name) < target) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

void send_frame(util::UnixStream& stream, wire::FrameType type,
                const std::vector<std::uint8_t>& payload) {
  const auto frame = wire::encode_frame(type, payload);
  ASSERT_TRUE(stream.send_all(frame.data(), frame.size(), 2.0).ok());
}

struct Frame {
  wire::FrameType type;
  std::vector<std::uint8_t> payload;
};

/// One checksum-verified frame; an error status once the stream is closed
/// or nothing arrives within `timeout_seconds`.
util::Result<Frame> recv_frame(util::UnixStream& stream,
                               double timeout_seconds) {
  std::uint8_t header_bytes[wire::kHeaderSize];
  if (auto st = stream.recv_all(header_bytes, sizeof(header_bytes),
                                timeout_seconds);
      !st.ok()) {
    return st;
  }
  const auto header = wire::decode_header(header_bytes);
  if (!header.ok()) return header.status();
  Frame frame{header.value().type,
              std::vector<std::uint8_t>(header.value().payload_len)};
  if (auto st = stream.recv_all(frame.payload.data(), frame.payload.size(),
                                timeout_seconds);
      !st.ok()) {
    return st;
  }
  if (auto st = wire::verify_payload(header.value(), frame.payload);
      !st.ok()) {
    return st;
  }
  return frame;
}

// One live server + registry + preloaded race per test.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest}));
    serve::AffineRankModel::save_artifact(kIdentityArtifact, 1.0, 0.0);
    serve::AffineRankModel::save_artifact(kScaledArtifact, 2.0, 3.0);
    serve::AffineRankModel::save_artifact(
        kNanArtifact, std::numeric_limits<double>::quiet_NaN(), 0.0);
  }
  static void TearDownTestSuite() {
    delete race_;
    race_ = nullptr;
  }

  void boot(serve::ServerConfig config, serve::RegistryConfig reg_cfg = {},
            int partition_delay_us = 0) {
    reg_cfg.gate.probe_origin_lap = 30;
    reg_cfg.gate.probe_horizon = 5;
    reg_cfg.gate.probe_num_samples = 4;
    registry_ = std::make_unique<serve::ModelRegistry>(
        affine_factory(partition_delay_us), reg_cfg);
    registry_->set_probe_race(*race_);
    registry_->set_forecast_cache(std::make_shared<core::ForecastCache>(256));
    ASSERT_TRUE(registry_->init(kIdentityArtifact).ok());
    server_ = std::make_unique<serve::ForecastServer>(*registry_, config);
    server_->add_race(*race_);
    ASSERT_TRUE(server_->start().ok());
    socket_path_ = config.socket_path;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  serve::ClientConfig client_config() const {
    serve::ClientConfig cfg;
    cfg.socket_path = socket_path_;
    cfg.recv_timeout_seconds = 2.0;
    cfg.backoff.initial_seconds = 0.002;
    cfg.backoff.max_seconds = 0.02;
    return cfg;
  }

  static wire::ForecastRequest make_request(std::uint64_t id,
                                            std::uint64_t seed) {
    wire::ForecastRequest req;
    req.request_id = id;
    req.seed = seed;
    req.race_id = race_->id();
    req.origin_lap = 30;
    req.horizon = 5;
    req.num_samples = 4;
    return req;
  }

  static inline const std::string kIdentityArtifact =
      test_support::unique_temp_path("serve_identity.bin");
  static inline const std::string kScaledArtifact =
      test_support::unique_temp_path("serve_scaled.bin");
  static inline const std::string kNanArtifact =
      test_support::unique_temp_path("serve_nan.bin");

  static telemetry::RaceLog* race_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::ForecastServer> server_;
  std::string socket_path_;
};

telemetry::RaceLog* ServeTest::race_ = nullptr;

bool cars_identical(const std::vector<wire::CarForecast>& a,
                    const std::vector<wire::CarForecast>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].car_id != b[i].car_id ||
        a[i].median.size() != b[i].median.size() ||
        std::memcmp(a[i].median.data(), b[i].median.data(),
                    a[i].median.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- wire protocol ---------------------------------------------------------

TEST(Wire, ForecastRequestRoundtrip) {
  wire::ForecastRequest req;
  req.request_id = 0x1122334455667788ull;
  req.seed = 42;
  req.race_id = "Indy500-2019";
  req.origin_lap = 30;
  req.horizon = 10;
  req.num_samples = 16;
  req.deadline_us = 5000;
  auto decoded = wire::decode_forecast_request(
      wire::encode_forecast_request(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().request_id, req.request_id);
  EXPECT_EQ(decoded.value().seed, req.seed);
  EXPECT_EQ(decoded.value().race_id, req.race_id);
  EXPECT_EQ(decoded.value().origin_lap, req.origin_lap);
  EXPECT_EQ(decoded.value().horizon, req.horizon);
  EXPECT_EQ(decoded.value().num_samples, req.num_samples);
  EXPECT_EQ(decoded.value().deadline_us, req.deadline_us);
}

TEST(Wire, ForecastResponseRoundtripPreservesBits) {
  wire::ForecastResponse res;
  res.request_id = 7;
  res.status_code = 0;
  res.tier = wire::Tier::kPartial;
  res.model_version = 3;
  res.cars.push_back({12, {1.0, 2.5, -0.0, 3.25}});
  res.cars.push_back({88, {17.0, std::nextafter(4.0, 5.0)}});
  res.message = "ok";
  auto decoded = wire::decode_forecast_response(
      wire::encode_forecast_response(res));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().tier, wire::Tier::kPartial);
  EXPECT_EQ(decoded.value().model_version, 3u);
  EXPECT_TRUE(cars_identical(decoded.value().cars, res.cars));
}

TEST(Wire, StrictDecodeRejectsTrailingAndTruncatedBytes) {
  auto bytes = wire::encode_forecast_request(wire::ForecastRequest{});
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(wire::decode_forecast_request(padded).ok());
  bytes.pop_back();
  EXPECT_FALSE(wire::decode_forecast_request(bytes).ok());
}

TEST(Wire, HeaderRejectsBadMagicVersionAndOversize) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  auto frame = wire::encode_frame(wire::FrameType::kForecastRequest, payload);
  auto header = wire::decode_header(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().payload_len, 3u);
  EXPECT_TRUE(wire::verify_payload(header.value(),
                                   std::span(frame).subspan(wire::kHeaderSize))
                  .ok());

  auto bad_magic = frame;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(wire::decode_header(bad_magic).ok());
  auto bad_version = frame;
  bad_version[4] = 99;
  EXPECT_FALSE(wire::decode_header(bad_version).ok());
}

TEST(Wire, ChecksumCatchesEverySingleBitFlipInPayload) {
  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  auto frame = wire::encode_frame(wire::FrameType::kLoadRace, payload);
  const auto header = wire::decode_header(frame).value();
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    auto mangled = payload;
    mangled[byte] ^= 0x04;
    EXPECT_FALSE(wire::verify_payload(header, mangled).ok())
        << "bit flip at payload byte " << byte << " went undetected";
  }
}

TEST(Wire, RaceLogRoundtripAndCorruptRaceIsStatusNotThrow) {
  const auto race =
      sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest});
  auto decoded = wire::decode_race(wire::encode_race(race));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().id(), race.id());
  EXPECT_EQ(decoded.value().num_records(), race.num_records());
  EXPECT_EQ(decoded.value().num_laps(), race.num_laps());

  // A payload that parses but violates RaceLog's structural invariants
  // must come back as a Status, never an exception.
  auto bytes = wire::encode_race(race);
  EXPECT_FALSE(wire::decode_race(
                   std::span(bytes).first(bytes.size() / 2))
                   .ok());
}

TEST(Wire, SwapAckRoundtrip) {
  wire::SwapAck ack;
  ack.status_code = 8;
  ack.action = wire::SwapAction::kRolledBack;
  ack.active_version = 41;
  ack.message = "probation";
  auto decoded = wire::decode_swap_ack(wire::encode_swap_ack(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().action, wire::SwapAction::kRolledBack);
  EXPECT_EQ(decoded.value().active_version, 41u);
  EXPECT_EQ(decoded.value().message, "probation");
}

// --- AffineRankModel -------------------------------------------------------

TEST(AffineRankModel, IdentityCoefficientsReproduceCurRank) {
  const auto race =
      sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest});
  serve::AffineRankModel affine(1.0, 0.0);
  core::CurRankForecaster cur;
  util::Rng rng_a(5), rng_b(5);
  const auto a = affine.forecast(race, 30, 5, 4, rng_a);
  const auto b = cur.forecast(race, 30, 5, 4, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [car, m] : a) {
    const auto& n = b.at(car);
    ASSERT_EQ(m.rows(), n.rows());
    ASSERT_EQ(m.cols(), n.cols());
    EXPECT_EQ(std::memcmp(m.flat().data(), n.flat().data(),
                          m.flat().size() * sizeof(double)),
              0);
  }
}

TEST(AffineRankModel, ArtifactRoundtripAndStagedCommitOnCorruption) {
  const std::string path = test_support::unique_temp_path("affine_rt.bin");
  serve::AffineRankModel::save_artifact(path, 1.5, -2.0);
  serve::AffineRankModel model(1.0, 0.0);
  ASSERT_TRUE(model.load_artifact(path).ok());
  EXPECT_DOUBLE_EQ(model.scale(), 1.5);
  EXPECT_DOUBLE_EQ(model.offset(), -2.0);
  // Corrupt load leaves the previous coefficients untouched.
  EXPECT_FALSE(
      model.load_artifact(test_support::unique_temp_path("affine_missing.bin"))
          .ok());
  EXPECT_DOUBLE_EQ(model.scale(), 1.5);
  EXPECT_DOUBLE_EQ(model.offset(), -2.0);
}

// --- end-to-end serving ----------------------------------------------------

TEST_F(ServeTest, ForecastOverSocketThenByteIdenticalCacheHit) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_e2e.sock");
  boot(cfg);
  serve::ForecastClient client(client_config());

  auto first = client.forecast(make_request(1, 99));
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(first.value().ok()) << first.value().message;
  EXPECT_EQ(first.value().tier, wire::Tier::kFull);
  EXPECT_EQ(first.value().model_version, 1u);
  ASSERT_FALSE(first.value().cars.empty());
  for (const auto& car : first.value().cars) {
    ASSERT_EQ(car.median.size(), 5u);
    for (double v : car.median) EXPECT_TRUE(std::isfinite(v));
  }

  // Same seed + same race state => served from the forecast cache, and the
  // replay is byte-identical to the cold compute.
  auto replay = client.forecast(make_request(2, 99));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().tier, wire::Tier::kCached);
  EXPECT_TRUE(cars_identical(replay.value().cars, first.value().cars));

  // A different seed is a different forecast.
  auto other = client.forecast(make_request(3, 100));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value().tier, wire::Tier::kFull);
}

TEST_F(ServeTest, LoadRaceOverWireAndUnknownRaceIsExplicitRejection) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_load.sock");
  boot(cfg);
  serve::ForecastClient client(client_config());

  auto req = make_request(1, 5);
  req.race_id = "Indy500-2021";  // not loaded yet
  auto missing = client.forecast(req);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().tier, wire::Tier::kRejected);
  EXPECT_EQ(missing.value().status_code,
            static_cast<std::uint8_t>(util::StatusCode::kNotFound));

  auto uploaded =
      sim::simulate_race({"Indy500", 2021, 60, sim::Usage::kTest});
  ASSERT_EQ(uploaded.id(), "Indy500-2021");
  ASSERT_TRUE(client.load_race(uploaded).ok());
  auto served = client.forecast(req);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served.value().ok()) << served.value().message;
  EXPECT_EQ(served.value().tier, wire::Tier::kFull);
}

TEST_F(ServeTest, PipelinedDuplicateRequestsGetIdenticalAnswers) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_batch.sock");
  boot(cfg);

  // Raw pipelining: 6 identical-seed + 2 distinct requests written
  // back-to-back before reading anything — the worker coalesces whatever
  // is queued, duplicates dedup through grouping and the cache.
  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  std::vector<std::uint8_t> out;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const auto frame =
        wire::encode_frame(wire::FrameType::kForecastRequest,
                           wire::encode_forecast_request(make_request(id, 7)));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  for (std::uint64_t id = 7; id <= 8; ++id) {
    // Distinct requests: id 8 asks for a different horizon, so it cannot
    // share a micro-batch group (and its answer is structurally different).
    auto req = make_request(id, 100 + id);
    if (id == 8) req.horizon = 3;
    const auto frame = wire::encode_frame(
        wire::FrameType::kForecastRequest, wire::encode_forecast_request(req));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(stream.value().send_all(out.data(), out.size(), 2.0).ok());

  std::map<std::uint64_t, wire::ForecastResponse> responses;
  for (int i = 0; i < 8; ++i) {
    std::uint8_t header_bytes[wire::kHeaderSize];
    ASSERT_TRUE(stream.value()
                    .recv_all(header_bytes, sizeof(header_bytes), 5.0)
                    .ok());
    const auto header = wire::decode_header(header_bytes);
    ASSERT_TRUE(header.ok());
    std::vector<std::uint8_t> payload(header.value().payload_len);
    ASSERT_TRUE(
        stream.value().recv_all(payload.data(), payload.size(), 5.0).ok());
    ASSERT_TRUE(wire::verify_payload(header.value(), payload).ok());
    auto response = wire::decode_forecast_response(payload);
    ASSERT_TRUE(response.ok());
    responses[response.value().request_id] = std::move(response).value();
  }
  ASSERT_EQ(responses.size(), 8u);
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(responses[id].ok()) << responses[id].message;
    EXPECT_TRUE(cars_identical(responses[id].cars, responses[1].cars))
        << "duplicate request " << id << " got a different answer";
  }
  EXPECT_FALSE(cars_identical(responses[7].cars, responses[8].cars));
}

TEST_F(ServeTest, OverloadShedsExplicitlyAndMonotonically) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_shed.sock");
  cfg.queue_capacity = 4;
  cfg.overload_watermark = 2;
  cfg.batch_max = 2;
  // A deliberately slow primary (2ms per partition task) so the queue
  // actually backs up behind the worker.
  boot(cfg, {}, /*partition_delay_us=*/2000);

  const auto shed_before = counter_value("serve.admission.shed_queue_full");
  const auto degraded_before = counter_value("serve.admission.degraded");

  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  constexpr int kBurst = 40;
  std::vector<std::uint8_t> out;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    auto req = make_request(id, id);  // distinct seeds: no dedup relief
    req.deadline_us = 1500000;
    const auto frame = wire::encode_frame(
        wire::FrameType::kForecastRequest, wire::encode_forecast_request(req));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(stream.value().send_all(out.data(), out.size(), 5.0).ok());

  int rejected = 0, served = 0, degraded_served = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::uint8_t header_bytes[wire::kHeaderSize];
    ASSERT_TRUE(stream.value()
                    .recv_all(header_bytes, sizeof(header_bytes), 10.0)
                    .ok())
        << "request " << i << " never answered — a hang, not a shed";
    const auto header = wire::decode_header(header_bytes);
    ASSERT_TRUE(header.ok());
    std::vector<std::uint8_t> payload(header.value().payload_len);
    ASSERT_TRUE(
        stream.value().recv_all(payload.data(), payload.size(), 10.0).ok());
    auto response = wire::decode_forecast_response(payload);
    ASSERT_TRUE(response.ok());
    if (response.value().tier == wire::Tier::kRejected) {
      ++rejected;
      EXPECT_NE(response.value().status_code, 0);
    } else {
      ++served;
      if (response.value().tier == wire::Tier::kFallback ||
          response.value().tier == wire::Tier::kCached) {
        ++degraded_served;
      }
    }
  }
  // Every request came back; overload was shed explicitly, not absorbed.
  EXPECT_EQ(rejected + served, kBurst);
  EXPECT_GT(rejected, 0) << "queue of 4 absorbed a burst of 40";
  EXPECT_GT(served, 0);
  EXPECT_GT(degraded_served, 0) << "watermark admission never degraded";
  EXPECT_GT(counter_value("serve.admission.shed_queue_full"), shed_before);
  EXPECT_GT(counter_value("serve.admission.degraded"), degraded_before);
}

TEST_F(ServeTest, DeadlineExpiredInQueueIsExplicitRejection) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_deadline.sock");
  boot(cfg, {}, /*partition_delay_us=*/5000);  // ~45ms per cold forecast

  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  // Request A: generous deadline, hogs the worker. Request B: 1ms deadline,
  // guaranteed to die in the queue behind A.
  auto a = make_request(1, 1);
  a.deadline_us = 1500000;
  auto b = make_request(2, 2);
  b.deadline_us = 1000;
  std::vector<std::uint8_t> out;
  for (const auto* req : {&a, &b}) {
    const auto frame =
        wire::encode_frame(wire::FrameType::kForecastRequest,
                           wire::encode_forecast_request(*req));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(stream.value().send_all(out.data(), out.size(), 2.0).ok());

  bool saw_deadline_rejection = false;
  for (int i = 0; i < 2; ++i) {
    std::uint8_t header_bytes[wire::kHeaderSize];
    ASSERT_TRUE(stream.value()
                    .recv_all(header_bytes, sizeof(header_bytes), 10.0)
                    .ok());
    const auto header = wire::decode_header(header_bytes);
    ASSERT_TRUE(header.ok());
    std::vector<std::uint8_t> payload(header.value().payload_len);
    ASSERT_TRUE(
        stream.value().recv_all(payload.data(), payload.size(), 10.0).ok());
    auto response = wire::decode_forecast_response(payload);
    ASSERT_TRUE(response.ok());
    if (response.value().request_id == 2 &&
        response.value().tier == wire::Tier::kRejected &&
        response.value().status_code ==
            static_cast<std::uint8_t>(util::StatusCode::kDeadlineExceeded)) {
      saw_deadline_rejection = true;
    }
  }
  EXPECT_TRUE(saw_deadline_rejection);
}

TEST_F(ServeTest, CorruptFrameIsSkippedAndConnectionSurvives) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_corrupt.sock");
  boot(cfg);
  const auto skipped_before = counter_value("serve.frames.corrupt_skipped");

  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  auto corrupt =
      wire::encode_frame(wire::FrameType::kForecastRequest,
                         wire::encode_forecast_request(make_request(1, 1)));
  corrupt.back() ^= 0x01;  // payload no longer matches its checksum
  const auto valid =
      wire::encode_frame(wire::FrameType::kForecastRequest,
                         wire::encode_forecast_request(make_request(2, 2)));
  std::vector<std::uint8_t> out = corrupt;
  out.insert(out.end(), valid.begin(), valid.end());
  ASSERT_TRUE(stream.value().send_all(out.data(), out.size(), 2.0).ok());

  // The corrupt frame vanished (checksum), the valid one on the SAME
  // connection is answered.
  std::uint8_t header_bytes[wire::kHeaderSize];
  ASSERT_TRUE(
      stream.value().recv_all(header_bytes, sizeof(header_bytes), 5.0).ok());
  const auto header = wire::decode_header(header_bytes);
  ASSERT_TRUE(header.ok());
  std::vector<std::uint8_t> payload(header.value().payload_len);
  ASSERT_TRUE(
      stream.value().recv_all(payload.data(), payload.size(), 5.0).ok());
  auto response = wire::decode_forecast_response(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().request_id, 2u);
  EXPECT_TRUE(response.value().ok());
  EXPECT_GT(counter_value("serve.frames.corrupt_skipped"), skipped_before);
}

TEST_F(ServeTest, BadMagicDropsConnectionButServerKeepsServing) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_magic.sock");
  boot(cfg);

  auto garbage_conn = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(garbage_conn.ok());
  std::vector<std::uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(
      garbage_conn.value().send_all(garbage.data(), garbage.size(), 1.0).ok());
  // The server cuts this connection: reads now report closed/err, never data.
  char buf[16];
  const auto st = garbage_conn.value().recv_all(buf, sizeof(buf), 1.0);
  EXPECT_FALSE(st.ok());

  serve::ForecastClient client(client_config());
  auto ok = client.forecast(make_request(1, 3));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().ok());
}

TEST_F(ServeTest, StalledClientHoldingPartialFrameIsDropped) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_stall.sock");
  cfg.slow_client_timeout_seconds = 0.05;
  boot(cfg);
  const auto dropped_before = counter_value("serve.conn.slow_dropped");

  auto stalled = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stalled.ok());
  const auto frame =
      wire::encode_frame(wire::FrameType::kForecastRequest,
                         wire::encode_forecast_request(make_request(1, 4)));
  // Send half a frame and go quiet — the signature of a stalled client.
  ASSERT_TRUE(
      stalled.value().send_all(frame.data(), frame.size() / 2, 1.0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(counter_value("serve.conn.slow_dropped"), dropped_before);

  // A healthy client is untouched by the neighbor's demise.
  serve::ForecastClient client(client_config());
  auto ok = client.forecast(make_request(2, 4));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().ok());
}

TEST_F(ServeTest, ClientRetriesThroughDroppedAndCorruptedFrames) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_retry.sock");
  boot(cfg);

  auto client_cfg = client_config();
  client_cfg.recv_timeout_seconds = 0.1;  // fail fast on eaten frames
  client_cfg.backoff.max_attempts = 10;
  serve::ForecastClient client(client_cfg);

  sim::WireFaultProfile profile;
  profile.drop_rate = 0.4;
  profile.corrupt_rate = 0.2;
  auto injector = std::make_shared<sim::WireFaultInjector>(profile, 17);
  client.set_send_filter(
      [injector](std::span<const std::uint8_t> frame) {
        return injector->apply(frame);
      });

  // Every request eventually lands despite the hostile transport, and the
  // answers stay byte-identical to a clean client's (idempotent retries:
  // same seed => same bytes, via the cache).
  serve::ForecastClient clean(client_config());
  for (std::uint64_t id = 1; id <= 20; ++id) {
    auto noisy = client.forecast(make_request(id, 1000 + id));
    ASSERT_TRUE(noisy.ok()) << noisy.status().to_string();
    ASSERT_TRUE(noisy.value().ok());
    auto reference = clean.forecast(make_request(100 + id, 1000 + id));
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(cars_identical(noisy.value().cars, reference.value().cars));
  }
  EXPECT_GT(client.retries(), 0u) << "fault profile never exercised retry";
  EXPECT_GT(injector->counters().dropped + injector->counters().corrupted, 0u);
}

TEST_F(ServeTest, HotSwapPromotesServesNewBitsAndRejectsCorruptCandidate) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_swap.sock");
  boot(cfg);
  serve::ForecastClient client(client_config());

  auto before = client.forecast(make_request(1, 11));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().model_version, 1u);

  auto ack = client.swap_model(kScaledArtifact);
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  EXPECT_EQ(ack.value().action, wire::SwapAction::kPromoted);
  EXPECT_EQ(ack.value().active_version, 2u);

  auto after = client.forecast(make_request(2, 11));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().model_version, 2u);
  // scale 2 / offset 3: same seed, provably different model bits.
  ASSERT_EQ(after.value().cars.size(), before.value().cars.size());
  EXPECT_FALSE(cars_identical(after.value().cars, before.value().cars));

  // A corrupt candidate is rejected mid-flight and v2 keeps serving.
  const std::string corrupt_path =
      test_support::unique_temp_path("serve_corrupt_cand.bin");
  serve::AffineRankModel::save_artifact(corrupt_path, 5.0, 5.0);
  {
    std::FILE* f = std::fopen(corrupt_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  auto bad = client.swap_model(corrupt_path);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().action, wire::SwapAction::kRejected);
  EXPECT_EQ(bad.value().active_version, 2u);
  auto still = client.forecast(make_request(3, 11));
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value().model_version, 2u);
  EXPECT_TRUE(cars_identical(still.value().cars, after.value().cars));
}

TEST_F(ServeTest, BadModelSlippingThroughGateIsAutoRolledBackUnderTraffic) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_rollback.sock");
  serve::RegistryConfig reg_cfg;
  reg_cfg.gate.max_prediction_failure_rate = 1.0;  // gate off: probation's job
  boot(cfg, reg_cfg);
  serve::ForecastClient client(client_config());

  ASSERT_TRUE(client.swap_model(kScaledArtifact).ok());  // healthy v2
  const auto rolled_before = counter_value("serve.registry.rolled_back");
  auto ack = client.swap_model(kNanArtifact);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack.value().action, wire::SwapAction::kPromoted);  // v3, rotten

  // The first full-tier serving result exposes the NaNs: the response
  // carries an explicit failure and probation rolls back to v2.
  auto poisoned = client.forecast(make_request(1, 21));
  ASSERT_TRUE(poisoned.ok());
  EXPECT_FALSE(poisoned.value().ok());
  EXPECT_EQ(poisoned.value().model_version, 3u);

  auto recovered = client.forecast(make_request(2, 22));
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().ok()) << recovered.value().message;
  EXPECT_EQ(recovered.value().model_version, 2u);
  for (const auto& car : recovered.value().cars) {
    for (double v : car.median) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(counter_value("serve.registry.rolled_back"), rolled_before);
}

TEST_F(ServeTest, ShutdownFrameStopsTheServerCleanly) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_shutdown.sock");
  boot(cfg);
  serve::ForecastClient client(client_config());
  ASSERT_TRUE(client.forecast(make_request(1, 1)).ok());
  EXPECT_TRUE(client.shutdown_server().ok());
  server_->stop();  // joins promptly: both threads saw the stop flag
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeTest, EngineThreadsServeIdenticalBytesToInline) {
  // Same request through a threads=2 registry and a threads=0 registry:
  // the engine's determinism contract must survive the serving stack.
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_threads.sock");
  serve::RegistryConfig reg_cfg;
  reg_cfg.engine_threads = 2;
  boot(cfg, reg_cfg);
  serve::ForecastClient client(client_config());
  auto threaded = client.forecast(make_request(1, 33));
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE(threaded.value().ok());
  server_->stop();

  serve::ServerConfig cfg2;
  cfg2.socket_path = test_support::unique_temp_path("serve_threads0.sock");
  boot(cfg2);
  serve::ForecastClient inline_client(client_config());
  auto inline_res = inline_client.forecast(make_request(2, 33));
  ASSERT_TRUE(inline_res.ok());
  EXPECT_TRUE(cars_identical(threaded.value().cars, inline_res.value().cars));
}

// --- race table & fleet-sharded serving ------------------------------------

TEST(RaceTable, SnapshotFindSurvivesConcurrentReplacement) {
  serve::RaceTable table(4);
  EXPECT_EQ(table.buckets(), 4u);
  auto race = sim::simulate_race({"Iowa", 2018, 40, sim::Usage::kTest});
  const std::string id = race.id();
  table.insert(race);
  ASSERT_EQ(table.size(), 1u);

  auto snapshot = table.find(id);
  ASSERT_NE(snapshot, nullptr);
  const auto digest_before = snapshot->digest();

  // Writers replacing the entry and readers resolving it, concurrently.
  // Every successful find must return a coherent entry; the snapshot taken
  // above must stay untouched.
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        if (t % 2 == 0) {
          table.insert(sim::simulate_race(
              {"Iowa", 2018, 40, sim::Usage::kTest},
              /*base_seed=*/static_cast<std::uint64_t>(i)));
        } else {
          auto e = table.find(id);
          if (!e || e->id() != id) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(snapshot->digest(), digest_before);  // snapshot is immutable
  EXPECT_EQ(table.find("no-such-race"), nullptr);
  EXPECT_EQ(table.size(), 1u);  // replacements, not duplicates
}

/// The digest RaceLog documents, recomputed from the log's series.
std::uint64_t recomputed_digest(const telemetry::RaceLog& race) {
  util::Fnv1a h;
  const std::string id = race.id();
  h.update_bytes(id.data(), id.size());
  h.update_u64(static_cast<std::uint64_t>(race.num_laps()));
  for (int car_id : race.car_ids()) {
    const auto& car = race.car(car_id);
    h.update_u64(static_cast<std::uint64_t>(car_id));
    h.update_u64(static_cast<std::uint64_t>(car.laps()));
    for (std::size_t t = 0; t < car.laps(); ++t) {
      h.update_double(car.rank[t]);
      h.update_double(car.lap_time[t]);
      h.update_u64(static_cast<std::uint64_t>(car.lap_status[t]));
      h.update_u64(static_cast<std::uint64_t>(car.track_status[t]));
    }
  }
  return h.digest();
}

TEST(RaceDigest, StoredDigestMatchesRecomputationOnEveryConstructionPath) {
  const auto simulated =
      sim::simulate_race({"Iowa", 2018, 40, sim::Usage::kTest});
  EXPECT_EQ(simulated.digest(), recomputed_digest(simulated));

  const auto decoded = wire::decode_race(wire::encode_race(simulated));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().digest(), recomputed_digest(decoded.value()));
  EXPECT_EQ(decoded.value().digest(), simulated.digest());

  // Ingested with one record lost, so the ingestor imputes a lap.
  telemetry::StreamIngestor ingestor;
  const auto& records = simulated.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != records.size() / 2) (void)ingestor.push(records[i]);
  }
  const auto ingested = ingestor.finalize(simulated.info());
  ASSERT_TRUE(ingested.ok()) << ingested.status().to_string();
  EXPECT_EQ(ingested.value().digest(), recomputed_digest(ingested.value()));

  const telemetry::RaceLog copy = ingested.value();
  EXPECT_EQ(copy.digest(), ingested.value().digest());
  const telemetry::RaceLog empty;
  EXPECT_EQ(empty.digest(), recomputed_digest(empty));
}

TEST_F(ServeTest, ShardedServingBytesMatchSingleShard) {
  // The same request answered by a 4-shard fleet and the pre-fleet
  // single-shard layout must be byte-identical: routing is load placement,
  // never math.
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_shards4.sock");
  serve::RegistryConfig reg_cfg;
  reg_cfg.shards = 4;
  boot(cfg, reg_cfg);
  serve::ForecastClient sharded_client(client_config());
  auto sharded = sharded_client.forecast(make_request(1, 55));
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(sharded.value().ok()) << sharded.value().message;
  server_->stop();

  serve::ServerConfig cfg1;
  cfg1.socket_path = test_support::unique_temp_path("serve_shards1.sock");
  boot(cfg1);  // default RegistryConfig: shards = 1
  serve::ForecastClient single_client(client_config());
  auto single = single_client.forecast(make_request(2, 55));
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(cars_identical(sharded.value().cars, single.value().cars));
}

TEST_F(ServeTest, AddRaceUnderLoadNeverBlocksOrDropsServing) {
  // The PR-7 hot path took one global races_mutex_ on every worker
  // iteration, so loading race N+1 contended with serving race N. Now
  // admission resolves a bucket-sharded snapshot once and the worker takes
  // no race-table lock at all. This test drives sustained forecasts for
  // two races across client threads WHILE a loader thread hammers
  // add_race, and requires every single request answered healthily.
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_contention.sock");
  cfg.queue_capacity = 256;
  cfg.overload_watermark = 240;
  serve::RegistryConfig reg_cfg;
  reg_cfg.shards = 4;
  boot(cfg, reg_cfg);

  auto second = sim::simulate_race({"Pocono", 2019, 60, sim::Usage::kTest});
  server_->add_race(second);
  const std::string ids[2] = {race_->id(), second.id()};

  std::atomic<bool> stop_loader{false};
  std::thread loader([&] {
    // Distinct ids: the table grows while buckets churn.
    int n = 0;
    while (!stop_loader.load()) {
      auto extra =
          sim::simulate_race({"Texas", 2013 + (n % 7), 40, sim::Usage::kTest},
                             static_cast<std::uint64_t>(n));
      server_->add_race(std::move(extra));
      ++n;
    }
  });

  // serve.shard.<i>.* are process-wide: count this test's share as deltas.
  const auto shard_sum = [](const char* what) {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      sum += counter_value(
          ("serve.shard." + std::to_string(s) + "." + what).c_str());
    }
    return sum;
  };
  const std::uint64_t groups_before = shard_sum("groups");
  const std::uint64_t requests_before = shard_sum("requests");

  constexpr int kClients = 3;
  constexpr int kPerClient = 25;
  std::atomic<int> answered{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::ForecastClient client(client_config());
      for (int i = 0; i < kPerClient; ++i) {
        auto req = make_request(static_cast<std::uint64_t>(c * 1000 + i),
                                static_cast<std::uint64_t>(i));
        req.race_id = ids[(c + i) % 2];
        auto res = client.forecast(req);
        if (res.ok() && res.value().ok()) {
          answered.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  stop_loader.store(true);
  loader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  // Both races routed through the fleet: the serve.shard.* group counters
  // moved, and every request sent was booked on exactly one shard.
  EXPECT_GT(shard_sum("groups"), groups_before);
  EXPECT_EQ(shard_sum("requests") - requests_before,
            static_cast<std::uint64_t>(kClients * kPerClient));
}

// --- per-group completion ---------------------------------------------------

TEST_F(ServeTest, SlowGroupDoesNotHoldBackOtherShards) {
  // A cold forecast on one shard is slow. A request for a race on another
  // shard that arrives while it computes is a cache hit there, and must be
  // answered first: groups answer as they finish, with no batch barrier.
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_no_barrier.sock");
  serve::RegistryConfig reg_cfg;
  reg_cfg.shards = 4;
  boot(cfg, reg_cfg, /*partition_delay_us=*/10000);

  const auto fleet = registry_->active()->fleet;
  const auto slow_shard = fleet->shard_for(race_->id())->index();
  std::optional<telemetry::RaceLog> other;
  for (const char* event : {"Pocono", "Texas", "Iowa"}) {
    for (int year : {2018, 2019}) {
      auto race = sim::simulate_race({event, year, 60, sim::Usage::kTest});
      if (!other && fleet->shard_for(race.id())->index() != slow_shard) {
        other = std::move(race);
      }
    }
  }
  ASSERT_TRUE(other.has_value()) << "no candidate race on another shard";
  server_->add_race(*other);

  auto fast = make_request(2, 7);
  fast.race_id = other->id();
  fast.deadline_us = 1500000;
  serve::ForecastClient client(client_config());
  const auto warm = client.forecast(fast);
  ASSERT_TRUE(warm.ok() && warm.value().ok());
  ASSERT_EQ(warm.value().tier, wire::Tier::kFull);

  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  const auto groups = counter_value("serve.batch.groups");
  auto slow = make_request(1, 1);
  slow.deadline_us = 1500000;
  send_frame(stream.value(), wire::FrameType::kForecastRequest,
             wire::encode_forecast_request(slow));
  ASSERT_TRUE(wait_for_counter("serve.batch.groups", groups + 1));
  fast.request_id = 3;
  send_frame(stream.value(), wire::FrameType::kForecastRequest,
             wire::encode_forecast_request(fast));

  std::vector<std::uint64_t> order;
  std::map<std::uint64_t, wire::Tier> tiers;
  for (int i = 0; i < 2; ++i) {
    const auto frame = recv_frame(stream.value(), 10.0);
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    const auto response = wire::decode_forecast_response(frame.value().payload);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().ok()) << response.value().message;
    order.push_back(response.value().request_id);
    tiers[response.value().request_id] = response.value().tier;
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 1}))
      << "the cached request waited behind the slow group on another shard";
  // Request 3's cache hit lands on another shard while request 1 computes;
  // it must not relabel request 1's cold forecast.
  EXPECT_EQ(tiers[1], wire::Tier::kFull);
}

TEST_F(ServeTest, SwapWaitsForInFlightGroupsAndAppliesToLaterRequests) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_swap_inflight.sock");
  boot(cfg, {}, /*partition_delay_us=*/10000);

  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  const auto groups = counter_value("serve.batch.groups");
  auto slow = make_request(1, 1);
  slow.deadline_us = 1500000;
  send_frame(stream.value(), wire::FrameType::kForecastRequest,
             wire::encode_forecast_request(slow));
  ASSERT_TRUE(wait_for_counter("serve.batch.groups", groups + 1));
  send_frame(stream.value(), wire::FrameType::kSwapModel,
             wire::encode_swap_request({kScaledArtifact}));

  // The in-flight group answers on the model it was dispatched with, and
  // before the ack.
  const auto first = recv_frame(stream.value(), 10.0);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_EQ(first.value().type, wire::FrameType::kForecastResponse);
  const auto response = wire::decode_forecast_response(first.value().payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().ok()) << response.value().message;
  EXPECT_EQ(response.value().request_id, 1u);
  EXPECT_EQ(response.value().model_version, 1u);

  const auto second = recv_frame(stream.value(), 10.0);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  ASSERT_EQ(second.value().type, wire::FrameType::kSwapAck);
  const auto ack = wire::decode_swap_ack(second.value().payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().action, wire::SwapAction::kPromoted);
  EXPECT_EQ(ack.value().active_version, 2u);

  for (std::uint64_t id = 2; id <= 4; ++id) {
    auto req = make_request(id, id);
    req.deadline_us = 1500000;
    send_frame(stream.value(), wire::FrameType::kForecastRequest,
               wire::encode_forecast_request(req));
  }
  for (int i = 0; i < 3; ++i) {
    const auto frame = recv_frame(stream.value(), 10.0);
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    const auto later = wire::decode_forecast_response(frame.value().payload);
    ASSERT_TRUE(later.ok());
    EXPECT_TRUE(later.value().ok()) << later.value().message;
    EXPECT_EQ(later.value().model_version, 2u)
        << "request " << later.value().request_id << " sent after the ack";
  }
}

TEST_F(ServeTest, StopWithGroupsInFlightAnswersOrClosesEveryRequest) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_stop_inflight.sock");
  boot(cfg, {}, /*partition_delay_us=*/5000);

  constexpr int kConns = 3;
  constexpr int kPerConn = 4;
  std::vector<util::UnixStream> streams;
  const auto groups = counter_value("serve.batch.groups");
  for (int c = 0; c < kConns; ++c) {
    auto stream = util::UnixStream::connect(socket_path_, 1.0);
    ASSERT_TRUE(stream.ok());
    streams.push_back(std::move(stream).value());
    for (int i = 0; i < kPerConn; ++i) {
      auto req = make_request(static_cast<std::uint64_t>(c * 10 + i),
                              static_cast<std::uint64_t>(c * 10 + i));
      req.deadline_us = 1500000;
      send_frame(streams.back(), wire::FrameType::kForecastRequest,
                 wire::encode_forecast_request(req));
    }
  }
  ASSERT_TRUE(wait_for_counter("serve.batch.groups", groups + 1));
  server_->stop();
  EXPECT_FALSE(server_->running());

  // Every request is answered (served, or rejected as the queue drains) or
  // its connection is closed; nothing waits for a reply that never comes.
  const auto stopped = std::chrono::steady_clock::now();
  int served = 0;
  for (auto& stream : streams) {
    for (int i = 0; i < kPerConn; ++i) {
      const auto frame = recv_frame(stream, 5.0);
      if (!frame.ok()) break;  // closed by the stopped server
      const auto response =
          wire::decode_forecast_response(frame.value().payload);
      ASSERT_TRUE(response.ok());
      if (response.value().ok()) ++served;
    }
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          stopped)
                .count(),
            4.0)
      << "a connection stayed open with a request left unanswered";
  EXPECT_GT(served, 0) << "the dispatched group was dropped, not answered";
}

TEST_F(ServeTest, DispatchedRequestsAreCappedAtBatchMax) {
  serve::ServerConfig cfg;
  cfg.socket_path = test_support::unique_temp_path("serve_inflight_cap.sock");
  cfg.batch_max = 2;
  boot(cfg, {}, /*partition_delay_us=*/5000);

  // Groups are counted at dispatch and tiers are booked before each
  // response is sent; here every group holds one request. Reading the group
  // count first can only undercount what is unanswered, never overcount.
  const auto settled = [] {
    std::uint64_t n = 0;
    for (const char* tier : {"serve.tier.full", "serve.tier.cached",
                             "serve.tier.partial", "serve.tier.fallback",
                             "serve.tier.rejected"}) {
      n += counter_value(tier);
    }
    return static_cast<std::int64_t>(n);
  };
  const auto groups_before =
      static_cast<std::int64_t>(counter_value("serve.batch.groups"));
  const auto settled_before = settled();
  std::atomic<bool> done{false};
  std::int64_t max_unanswered = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      const auto dispatched =
          static_cast<std::int64_t>(counter_value("serve.batch.groups")) -
          groups_before;
      max_unanswered = std::max(max_unanswered,
                                dispatched - (settled() - settled_before));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  auto stream = util::UnixStream::connect(socket_path_, 1.0);
  ASSERT_TRUE(stream.ok());
  constexpr int kRequests = 10;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    auto req = make_request(id, id);  // distinct seeds: ten groups
    req.deadline_us = 2000000;
    send_frame(stream.value(), wire::FrameType::kForecastRequest,
               wire::encode_forecast_request(req));
  }
  int answered = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto frame = recv_frame(stream.value(), 10.0);
    if (!frame.ok()) break;
    const auto response = wire::decode_forecast_response(frame.value().payload);
    if (response.ok() && response.value().ok()) ++answered;
  }
  done.store(true);
  sampler.join();
  EXPECT_EQ(answered, kRequests);
  EXPECT_LE(max_unanswered, 2) << "more than batch_max requests in flight";
}

}  // namespace
