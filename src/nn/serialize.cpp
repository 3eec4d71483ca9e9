#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "tensor/serialize.hpp"
#include "util/string_util.hpp"

namespace ranknet::nn {

namespace {
// v1: bare magic, then count + parameters, no integrity check.
constexpr std::uint64_t kMagicV1 = 0x524b4e45542d3031ULL;  // "RKNET-01"
// v2+: magic + version + payload size + FNV-1a checksum, then the payload.
constexpr std::uint64_t kMagicV2 = 0x524b4e54763253ULL;  // "RKNTv2S"
constexpr std::uint32_t kSchemaVersion = 2;
// v3 appends a calibration section to the payload; same magic and envelope.
// Read-only: the section is validated and discarded.
constexpr std::uint32_t kSchemaVersionCalibrated = 3;
// A parameter name longer than this means the length field is garbage.
constexpr std::uint64_t kMaxNameLen = 1 << 16;

void write_string(std::ostream& out, const std::string& s) {
  const std::uint64_t n = s.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(s.data(), static_cast<std::streamsize>(n));
}

util::Result<std::string> read_string(std::istream& in) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) return util::Status::corrupt_data("truncated string length");
  if (n > kMaxNameLen) {
    return util::Status::corrupt_data(
        util::format("implausible string length %llu",
                     static_cast<unsigned long long>(n)));
  }
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  if (!in) return util::Status::corrupt_data("truncated string payload");
  return s;
}

/// v3 calibration section: entry count, then per entry a tensor name, an
/// activation absmax, and the (always-zero, symmetric) zero point. Nothing
/// reads the ranges any more, but the section is input from outside the
/// program, so it is still validated in full before being skipped.
util::Status skip_calibration(std::istream& in, const std::string& path) {
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) {
    return util::Status::corrupt_data("truncated calibration header in " +
                                      path);
  }
  // Sanity bound: a model has a handful of GEMM tensors, not millions.
  if (count > kMaxNameLen) {
    return util::Status::corrupt_data(
        util::format("implausible calibration entry count %llu in %s",
                     static_cast<unsigned long long>(count), path.c_str()));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    auto name = read_string(in);
    if (!name.ok()) return name.status();
    double absmax = 0.0, zero_point = 0.0;
    in.read(reinterpret_cast<char*>(&absmax), sizeof(absmax));
    in.read(reinterpret_cast<char*>(&zero_point), sizeof(zero_point));
    if (!in) {
      return util::Status::corrupt_data("truncated calibration entry in " +
                                        path);
    }
    // The v3 writer only ever emitted symmetric (zero) zero points; any
    // other value means the bytes are not what that writer produced.
    if (zero_point != 0.0) {
      return util::Status::corrupt_data(
          "nonzero int8 zero point for '" + name.value() + "' in " + path +
          " (v3 calibration is symmetric-only)");
    }
  }
  return {};
}

/// Payload shared by all versions: count, then named parameter matrices;
/// v3 payloads carry a trailing calibration section. Parses into scratch
/// and commits only when everything matched, so a failed load never leaves
/// a model half-overwritten.
util::Status load_payload(std::istream& in,
                          const std::vector<Parameter*>& params,
                          std::uint32_t version, const std::string& path,
                          bool strict_tail) {
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return util::Status::corrupt_data("truncated header in " + path);
  if (count != params.size()) {
    return util::Status::corrupt_data(util::format(
        "parameter count mismatch in %s: file has %llu, model has %zu",
        path.c_str(), static_cast<unsigned long long>(count), params.size()));
  }
  std::vector<tensor::Matrix> staged;
  staged.reserve(params.size());
  for (const auto* p : params) {
    auto name = read_string(in);
    if (!name.ok()) return name.status();
    if (name.value() != p->name) {
      return util::Status::corrupt_data("expected parameter '" + p->name +
                                        "', found '" + name.value() + "' in " +
                                        path);
    }
    tensor::Matrix m;
    try {
      m = tensor::read_matrix(in);
    } catch (const std::exception& e) {
      return util::Status::corrupt_data(std::string(e.what()) + " for " +
                                        p->name + " in " + path);
    }
    if (!m.same_shape(p->value)) {
      return util::Status::corrupt_data("shape mismatch for " + p->name +
                                        " in " + path);
    }
    staged.push_back(std::move(m));
  }
  // Validate the calibration section (when present) before committing any
  // parameter, so a truncated tail leaves the model untouched too.
  if (version >= kSchemaVersionCalibrated) {
    if (util::Status s = skip_calibration(in, path); !s.ok()) return s;
  }
  // The payload must end exactly where the last section does. Trailing
  // bytes mean the writer and this parser disagree about the schema (e.g.
  // a calibration section whose entry count was shrunk by corruption with
  // an honestly regenerated checksum) — reject before committing anything
  // rather than silently ignoring content we did not understand. v1 legacy
  // files predate the sized-payload envelope and stay lenient.
  if (strict_tail && in.peek() != std::istream::traits_type::eof()) {
    return util::Status::corrupt_data("trailing bytes after payload in " +
                                      path);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(staged[i]);
    params[i]->zero_grad();
  }
  return {};
}

}  // namespace

void save_params(const std::string& path,
                 const std::vector<Parameter*>& params) {
  std::ostringstream payload(std::ios::binary);
  const std::uint64_t count = params.size();
  payload.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto* p : params) {
    write_string(payload, p->name);
    tensor::write_matrix(payload, p->value);
  }
  const std::string bytes = payload.str();
  const std::uint64_t checksum = util::fnv1a(bytes);
  const std::uint64_t size = bytes.size();

  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_params: cannot open " + path);
  out.write(reinterpret_cast<const char*>(&kMagicV2), sizeof(kMagicV2));
  out.write(reinterpret_cast<const char*>(&kSchemaVersion),
            sizeof(kSchemaVersion));
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(bytes.data(), static_cast<std::streamsize>(size));
  if (!out) throw std::runtime_error("save_params: write failed: " + path);
}

util::Status try_load_params(const std::string& path,
                             const std::vector<Parameter*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::not_found("cannot open " + path);
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in) return util::Status::corrupt_data("truncated header in " + path);

  if (magic == kMagicV1) {
    // Legacy pre-checksum artifacts stay loadable (backward compat).
    return load_payload(in, params, /*version=*/1, path,
                        /*strict_tail=*/false);
  }
  if (magic != kMagicV2) {
    return util::Status::corrupt_data("bad magic in " + path);
  }
  std::uint32_t version = 0;
  std::uint64_t size = 0, checksum = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!in) return util::Status::corrupt_data("truncated header in " + path);
  if (version > kSchemaVersionCalibrated) {
    return util::Status::corrupt_data(
        util::format("%s has schema version %u, newer than supported %u",
                     path.c_str(), version, kSchemaVersionCalibrated));
  }
  // Validate the declared size against what the file actually holds before
  // trusting it with an allocation — a corrupt size field must not turn
  // into a multi-gigabyte buffer.
  const std::istream::pos_type header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t remaining =
      static_cast<std::uint64_t>(in.tellg() - header_end);
  in.seekg(header_end);
  if (size != remaining) {
    return util::Status::corrupt_data(util::format(
        "payload size mismatch in %s: header says %llu, file has %llu",
        path.c_str(), static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(remaining)));
  }
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (!in || in.gcount() != static_cast<std::streamsize>(size)) {
    return util::Status::corrupt_data("truncated payload in " + path);
  }
  if (util::fnv1a(bytes) != checksum) {
    return util::Status::corrupt_data("checksum mismatch in " + path +
                                      " (artifact is corrupt)");
  }
  std::istringstream payload(bytes, std::ios::binary);
  return load_payload(payload, params, version, path, /*strict_tail=*/true);
}

void load_params(const std::string& path,
                 const std::vector<Parameter*>& params) {
  if (util::Status s = try_load_params(path, params); !s.ok()) {
    throw std::runtime_error("load_params: " + s.to_string());
  }
}

}  // namespace ranknet::nn
