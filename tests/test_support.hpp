// Shared test fixtures: per-process scratch paths, a v3 model-artifact
// builder and the workspace arena counters read by registry name.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "nn/param.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace ranknet::test_support {

/// `name` under ::testing::TempDir(), prefixed with this process's id.
/// Binaries with an aggregate `*_suite` ctest entry run twice side by side
/// under `ctest -j` (per-case entries plus the aggregate), so fixed socket
/// and artifact names would let the two processes clobber each other.
inline std::string unique_temp_path(const std::string& name) {
  return ::testing::TempDir() + "ranknet_" + std::to_string(::getpid()) +
         "_" + name;
}

/// One v3 calibration entry: tensor name and activation absmax. The zero
/// point is written as 0.0 unless a test corrupts it afterwards.
using CalibrationEntry = std::pair<std::string, double>;

/// Writes a v3 artifact the way the retired calibration writer did: the v2
/// payload of `params`, a calibration section appended to it (u64 entry
/// count, then per entry a name string, f64 absmax and f64 zero point),
/// schema version 3, and an honest payload size and checksum.
inline void write_v3_artifact(const std::string& path,
                              const std::vector<nn::Parameter*>& params,
                              const std::vector<CalibrationEntry>& entries) {
  nn::save_params(path, params);
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Envelope: u64 magic, u32 version, u64 payload size, u64 checksum.
  constexpr std::size_t kVersionAt = 8, kSizeAt = 12, kChecksumAt = 20,
                        kHeaderSize = 28;
  ASSERT_GE(file.size(), kHeaderSize);
  std::string payload = file.substr(kHeaderSize);
  const auto append = [&payload](const void* p, std::size_t n) {
    payload.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t count = entries.size();
  append(&count, sizeof(count));
  for (const auto& [name, absmax] : entries) {
    const std::uint64_t len = name.size();
    append(&len, sizeof(len));
    payload += name;
    const double zero_point = 0.0;
    append(&absmax, sizeof(absmax));
    append(&zero_point, sizeof(zero_point));
  }
  const std::uint32_t version = 3;
  const std::uint64_t size = payload.size();
  const std::uint64_t checksum = util::fnv1a(payload);
  std::memcpy(file.data() + kVersionAt, &version, sizeof(version));
  std::memcpy(file.data() + kSizeAt, &size, sizeof(size));
  std::memcpy(file.data() + kChecksumAt, &checksum, sizeof(checksum));
  file.resize(kHeaderSize);
  file += payload;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

/// The "workspace.*" arena counters, read from the process-wide
/// obs::Registry by name (as perfbench and the Prometheus export read them).
/// Tests diff two readings around the window they measure.
struct ArenaCounts {
  std::uint64_t epochs = 0;
  std::uint64_t reused_epochs = 0;
  std::uint64_t takes = 0;
  std::uint64_t block_allocs = 0;
};

inline ArenaCounts arena_counts() {
  auto& reg = obs::Registry::instance();
  return {reg.counter("workspace.epochs").value(),
          reg.counter("workspace.reused_epochs").value(),
          reg.counter("workspace.takes").value(),
          reg.counter("workspace.block_allocs").value()};
}

}  // namespace ranknet::test_support
