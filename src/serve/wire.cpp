#include "serve/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/fnv1a.hpp"

namespace ranknet::serve::wire {

namespace {

using util::Result;
using util::Status;

// Decode-side caps: reject before allocating, the artifact-loader rule.
constexpr std::size_t kMaxString = 4096;
constexpr std::size_t kMaxRecords = 1u << 20;
constexpr std::size_t kMaxCars = 4096;
constexpr std::size_t kMaxHorizon = 4096;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  util::Fnv1a h;
  h.update_bytes(bytes.data(), bytes.size());
  return h.digest();
}

/// Append-only little-endian byte writer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader; every accessor returns false once the payload is
/// exhausted, and the caller converts that into one kParseError.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) { return raw(&v, sizeof(v)); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
  bool i32(std::int32_t& v) { return raw(&v, sizeof(v)); }
  bool f64(double& v) { return raw(&v, sizeof(v)); }
  bool str(std::string& s, std::size_t cap = kMaxString) {
    std::uint32_t n = 0;
    if (!u32(n) || n > cap || n > remaining()) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  bool raw(void* p, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

Status parse_error(const char* what) {
  return Status::parse_error(std::string("wire: malformed ") + what);
}

/// Strict-decode epilogue: trailing bytes mean the payload is not what the
/// type says it is.
Status finish(const Reader& r, const char* what) {
  if (!r.done()) {
    return Status::parse_error(std::string("wire: ") +
                               std::to_string(r.remaining()) +
                               " trailing bytes after " + what);
  }
  return {};
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kRejected: return "rejected";
    case Tier::kFull: return "full";
    case Tier::kCached: return "cached";
    case Tier::kPartial: return "partial";
    case Tier::kFallback: return "fallback";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument("wire: payload exceeds kMaxPayload");
  }
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a(payload));
  auto out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::corrupt_data("wire: short frame header");
  }
  Reader r(bytes.first(kHeaderSize));
  std::uint32_t magic = 0, len = 0;
  std::uint8_t version = 0, type = 0;
  std::uint64_t checksum = 0;
  if (!r.u32(magic) || !r.u8(version) || !r.u8(type) || !r.u32(len) ||
      !r.u64(checksum)) {
    return Status::corrupt_data("wire: short frame header");
  }
  if (magic != kMagic) {
    return Status::corrupt_data("wire: bad magic (not a RNKS stream)");
  }
  if (version != kVersion) {
    return Status::corrupt_data("wire: unsupported protocol version " +
                                std::to_string(version));
  }
  if (type < static_cast<std::uint8_t>(FrameType::kForecastRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kShutdownAck)) {
    return Status::corrupt_data("wire: unknown frame type " +
                                std::to_string(type));
  }
  if (len > kMaxPayload) {
    return Status::corrupt_data("wire: payload length " +
                                std::to_string(len) + " exceeds cap");
  }
  FrameHeader h;
  h.type = static_cast<FrameType>(type);
  h.payload_len = len;
  h.checksum = checksum;
  return h;
}

Status verify_payload(const FrameHeader& header,
                      std::span<const std::uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    return Status::corrupt_data("wire: payload size mismatch");
  }
  if (fnv1a(payload) != header.checksum) {
    return Status::corrupt_data("wire: payload checksum mismatch");
  }
  return {};
}

// --- ForecastRequest -------------------------------------------------------

std::vector<std::uint8_t> encode_forecast_request(const ForecastRequest& req) {
  Writer w;
  w.u64(req.request_id);
  w.u64(req.seed);
  w.str(req.race_id);
  w.i32(req.origin_lap);
  w.i32(req.horizon);
  w.i32(req.num_samples);
  w.u32(req.deadline_us);
  return w.take();
}

Result<ForecastRequest> decode_forecast_request(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ForecastRequest req;
  if (!r.u64(req.request_id) || !r.u64(req.seed) || !r.str(req.race_id) ||
      !r.i32(req.origin_lap) || !r.i32(req.horizon) ||
      !r.i32(req.num_samples) || !r.u32(req.deadline_us)) {
    return parse_error("ForecastRequest");
  }
  if (auto s = finish(r, "ForecastRequest"); !s.ok()) return s;
  if (req.origin_lap < 1 || req.horizon < 1 ||
      req.horizon > static_cast<std::int32_t>(kMaxHorizon) ||
      req.num_samples < 1 || req.num_samples > 65536) {
    return Status::out_of_range(
        "wire: ForecastRequest origin/horizon/samples out of range");
  }
  return req;
}

// --- ForecastResponse ------------------------------------------------------

std::vector<std::uint8_t> encode_forecast_response(
    const ForecastResponse& res) {
  Writer w;
  w.u64(res.request_id);
  w.u8(res.status_code);
  w.u8(static_cast<std::uint8_t>(res.tier));
  w.u64(res.model_version);
  w.u32(static_cast<std::uint32_t>(res.cars.size()));
  for (const auto& car : res.cars) {
    w.i32(car.car_id);
    w.u32(static_cast<std::uint32_t>(car.median.size()));
    for (double v : car.median) w.f64(v);
  }
  w.str(res.message);
  return w.take();
}

Result<ForecastResponse> decode_forecast_response(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ForecastResponse res;
  std::uint8_t tier = 0;
  std::uint32_t n_cars = 0;
  if (!r.u64(res.request_id) || !r.u8(res.status_code) || !r.u8(tier) ||
      !r.u64(res.model_version) || !r.u32(n_cars)) {
    return parse_error("ForecastResponse");
  }
  if (tier > static_cast<std::uint8_t>(Tier::kFallback) || n_cars > kMaxCars) {
    return Status::out_of_range("wire: ForecastResponse tier/cars invalid");
  }
  res.tier = static_cast<Tier>(tier);
  res.cars.reserve(n_cars);
  for (std::uint32_t i = 0; i < n_cars; ++i) {
    CarForecast car;
    std::uint32_t len = 0;
    if (!r.i32(car.car_id) || !r.u32(len) || len > kMaxHorizon ||
        len * sizeof(double) > r.remaining()) {
      return parse_error("ForecastResponse car");
    }
    car.median.resize(len);
    for (auto& v : car.median) {
      if (!r.f64(v)) return parse_error("ForecastResponse car");
    }
    res.cars.push_back(std::move(car));
  }
  if (!r.str(res.message)) return parse_error("ForecastResponse message");
  if (auto s = finish(r, "ForecastResponse"); !s.ok()) return s;
  return res;
}

// --- RaceLog ---------------------------------------------------------------

std::vector<std::uint8_t> encode_race(const telemetry::RaceLog& race) {
  const auto& info = race.info();
  Writer w;
  w.str(info.name);
  w.i32(info.year);
  w.f64(info.track_length_miles);
  w.str(info.track_shape);
  w.i32(info.total_laps);
  w.f64(info.avg_speed_mph);
  w.u32(static_cast<std::uint32_t>(race.records().size()));
  for (const auto& rec : race.records()) {
    w.i32(rec.rank);
    w.i32(rec.car_id);
    w.i32(rec.lap);
    w.f64(rec.lap_time);
    w.f64(rec.time_behind_leader);
    w.u8(static_cast<std::uint8_t>(rec.lap_status));
    w.u8(static_cast<std::uint8_t>(rec.track_status));
  }
  return w.take();
}

Result<telemetry::RaceLog> decode_race(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  telemetry::EventInfo info;
  std::uint32_t n_records = 0;
  if (!r.str(info.name) || !r.i32(info.year) ||
      !r.f64(info.track_length_miles) || !r.str(info.track_shape) ||
      !r.i32(info.total_laps) || !r.f64(info.avg_speed_mph) ||
      !r.u32(n_records)) {
    return parse_error("RaceLog header");
  }
  if (n_records > kMaxRecords) {
    return Status::out_of_range("wire: race has too many records");
  }
  std::vector<telemetry::LapRecord> records;
  records.reserve(n_records);
  for (std::uint32_t i = 0; i < n_records; ++i) {
    telemetry::LapRecord rec;
    std::uint8_t lap_status = 0, track_status = 0;
    if (!r.i32(rec.rank) || !r.i32(rec.car_id) || !r.i32(rec.lap) ||
        !r.f64(rec.lap_time) || !r.f64(rec.time_behind_leader) ||
        !r.u8(lap_status) || !r.u8(track_status)) {
      return parse_error("RaceLog record");
    }
    if (lap_status > 1 || track_status > 1) {
      return Status::out_of_range("wire: race record status byte invalid");
    }
    rec.lap_status = static_cast<telemetry::LapStatus>(lap_status);
    rec.track_status = static_cast<telemetry::TrackStatus>(track_status);
    records.push_back(rec);
  }
  if (auto s = finish(r, "RaceLog"); !s.ok()) return s;
  // RaceLog's constructor enforces structural invariants with exceptions
  // (it normally guards trusted in-process callers); over the wire those
  // violations are just another corrupt input.
  try {
    return telemetry::RaceLog(std::move(info), std::move(records));
  } catch (const std::exception& e) {
    return Status::out_of_range(std::string("wire: race rejected: ") +
                                e.what());
  }
}

// --- SwapRequest / SwapAck -------------------------------------------------

std::vector<std::uint8_t> encode_swap_request(const SwapRequest& req) {
  Writer w;
  w.str(req.artifact_path);
  return w.take();
}

Result<SwapRequest> decode_swap_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SwapRequest req;
  if (!r.str(req.artifact_path)) return parse_error("SwapRequest");
  if (auto s = finish(r, "SwapRequest"); !s.ok()) return s;
  return req;
}

std::vector<std::uint8_t> encode_swap_ack(const SwapAck& ack) {
  Writer w;
  w.u8(ack.status_code);
  w.u8(static_cast<std::uint8_t>(ack.action));
  w.u64(ack.active_version);
  w.str(ack.message);
  return w.take();
}

Result<SwapAck> decode_swap_ack(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SwapAck ack;
  std::uint8_t action = 0;
  if (!r.u8(ack.status_code) || !r.u8(action) || !r.u64(ack.active_version) ||
      !r.str(ack.message)) {
    return parse_error("SwapAck");
  }
  if (action < static_cast<std::uint8_t>(SwapAction::kPromoted) ||
      action > static_cast<std::uint8_t>(SwapAction::kRolledBack)) {
    return Status::out_of_range("wire: SwapAck action invalid");
  }
  ack.action = static_cast<SwapAction>(action);
  if (auto s = finish(r, "SwapAck"); !s.ok()) return s;
  return ack;
}

// --- status ack ------------------------------------------------------------

std::vector<std::uint8_t> encode_status_ack(std::uint8_t status_code,
                                            const std::string& message) {
  Writer w;
  w.u8(status_code);
  w.str(message);
  return w.take();
}

Result<std::pair<std::uint8_t, std::string>> decode_status_ack(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  std::uint8_t code = 0;
  std::string message;
  if (!r.u8(code) || !r.str(message)) return parse_error("StatusAck");
  if (auto s = finish(r, "StatusAck"); !s.ok()) return s;
  return std::make_pair(code, message);
}

}  // namespace ranknet::serve::wire
