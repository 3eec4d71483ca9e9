// Save / load all parameters of a model to a binary file (model cache).
//
// v2 format (written by save_params):
//   magic "RKNT" + u32 schema version, u64 payload size, u64 FNV-1a payload
//   checksum, then the payload: count, then per parameter: name, rows, cols,
//   data. The checksum makes a bit-flipped or truncated artifact fail loudly
//   at load instead of poisoning a serving model.
// v3 format (no longer written): same envelope and magic, schema version 3,
//   and the payload carries a trailing calibration section after the
//   parameters: u64 entry count, then per entry: name string, f64
//   activation absmax, f64 zero point. Nothing reads those int8
//   activation ranges any more; the loader parses the section strictly
//   (entry-count bound, truncation, zero zero point) and discards it.
// v1 files (the pre-checksum format: bare magic + count + parameters) are
// still readable so existing artifacts/*.bin caches keep working. v2+
// payloads are parsed strictly: bytes after the last declared section are
// corruption, not padding.
#pragma once

#include <string>
#include <vector>

#include "nn/param.hpp"
#include "util/status.hpp"

namespace ranknet::nn {

void save_params(const std::string& path,
                 const std::vector<Parameter*>& params);

/// Loads into existing parameters (shapes/names must match); throws
/// std::runtime_error on any mismatch or I/O failure.
void load_params(const std::string& path,
                 const std::vector<Parameter*>& params);

/// Non-throwing load for untrusted artifact bytes: validates magic, schema
/// version, payload size and checksum (v2+) before touching any parameter.
/// On error no parameter is modified.
util::Status try_load_params(const std::string& path,
                             const std::vector<Parameter*>& params);

}  // namespace ranknet::nn
