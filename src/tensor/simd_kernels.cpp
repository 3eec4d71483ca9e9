// Dispatch-table plumbing for the SIMD microkernel layer: variant
// detection, RANKNET_KERNEL override handling, the scalar table, and the
// per-variant obs counters. The actual kernel bodies live in kernels.cpp
// (scalar) and simd_kernels_avx2.cpp (AVX2+FMA).
#include "tensor/simd_kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "tensor/simd_kernels_detail.hpp"

namespace ranknet::tensor::kernels {

namespace {

std::atomic<const Dispatch*> g_active{nullptr};

struct VariantCounters {
  obs::Counter* calls[2];
  obs::Gauge* active;
  VariantCounters() {
    auto& reg = obs::Registry::instance();
    calls[0] = &reg.counter("tensor.kernel.scalar.calls");
    calls[1] = &reg.counter("tensor.kernel.avx2.calls");
    active = &reg.gauge("tensor.kernel.active_variant");
  }
};

VariantCounters& counters() {
  static VariantCounters c;
  return c;
}

Variant best_supported() {
  return cpu_supports(Variant::kAvx2) ? Variant::kAvx2 : Variant::kScalar;
}

void activate(Variant v) {
  counters().active->set(static_cast<double>(static_cast<int>(v)));
  g_active.store(&table(v), std::memory_order_release);
}

/// First-use resolution: RANKNET_KERNEL wins; an invalid value is a
/// configuration error and must not be silently ignored, so it throws
/// (fail fast at process start rather than serving with an unintended
/// numerics variant).
const Dispatch* resolve_initial() {
  const util::Status st = apply_env_override(std::getenv("RANKNET_KERNEL"));
  if (!st.ok()) {
    throw std::runtime_error(st.to_string());
  }
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kAvx2:
      return "avx2";
    case Variant::kScalar:
      break;
  }
  return "scalar";
}

bool cpu_supports(Variant v) {
  if (v != Variant::kAvx2) return true;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Dispatch& table(Variant v) {
  switch (v) {
    case Variant::kAvx2:
      return detail::avx2_table();
    case Variant::kScalar:
      break;
  }
  return detail::scalar_table();
}

const Dispatch& dispatch() {
  const Dispatch* d = g_active.load(std::memory_order_acquire);
  if (d != nullptr) return *d;
  // Magic-static init serializes concurrent first calls.
  static const Dispatch* resolved = resolve_initial();
  return *resolved;
}

Variant active_variant() { return dispatch().variant; }

util::Status set_variant(Variant v) {
  if (!cpu_supports(v)) {
    return util::Status::failed_precondition(
        std::string("RANKNET_KERNEL: variant '") + variant_name(v) +
        "' is not supported on this CPU");
  }
  activate(v);
  return {};
}

util::Result<Variant> parse_variant(std::string_view s) {
  if (s == "scalar") return Variant::kScalar;
  if (s == "avx2") return Variant::kAvx2;
  return util::Status::invalid_argument(
      "RANKNET_KERNEL: unknown kernel variant '" + std::string(s) +
      "' (expected 'scalar' or 'avx2')");
}

util::Status apply_env_override(const char* value) {
  if (value == nullptr || *value == '\0') {
    activate(best_supported());
    return {};
  }
  auto parsed = parse_variant(value);
  if (!parsed.ok()) return parsed.status();
  return set_variant(parsed.value());
}

void note_call(Variant v) {
  counters().calls[static_cast<int>(v) & 1]->add(1);
}

}  // namespace ranknet::tensor::kernels

namespace ranknet::tensor::detail {

const kernels::Dispatch& scalar_table() {
  // The fused entries stay null: the scalar variant runs the staged
  // reference sequence in kernels.cpp so its numerics remain byte-frozen.
  static const kernels::Dispatch t = [] {
    kernels::Dispatch d;
    d.variant = kernels::Variant::kScalar;
    d.gemm_nn = &gemm_nn_scalar;
    d.sigmoid = &sigmoid_scalar;
    d.tanh = &tanh_scalar;
    d.hadamard = &hadamard_scalar;
    d.hadamard_add = &hadamard_add_scalar;
    d.add_bias_rows = &add_bias_rows_scalar;
    d.lstm_gates = nullptr;
    d.dense_epilogue = nullptr;
    return d;
  }();
  return t;
}

}  // namespace ranknet::tensor::detail
