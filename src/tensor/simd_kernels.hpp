// Runtime-dispatched SIMD microkernels for the inference hot path.
//
// Every kernel in tensor/kernels.cpp that sits on the Monte-Carlo decode
// path (the gate GEMM pair + gate-nonlinearity sequence of the LSTM cell, the
// dense/Gaussian head, and the elementwise Hadamard updates) routes through
// a per-process dispatch table selected here. Two variants exist:
//
//   * kScalar — the original portable loops in kernels.cpp. This is the
//     numerical reference: golden CSVs under tests/golden are regenerated
//     with this variant pinned, and its results are byte-frozen across
//     releases.
//   * kAvx2   — AVX2+FMA microkernels (simd_kernels_avx2.cpp): register-
//     blocked GEMM / GEMV, one shared 4-lane exp used by sigmoid/tanh, and
//     a fused LSTM gate kernel that runs bias + activations + state update
//     in one pass over the gate matrix.
//
// Selection: the first call to dispatch() picks the best variant the CPU
// supports (avx2 when available), unless the RANKNET_KERNEL environment
// variable overrides it ("scalar" or "avx2"). Unknown values or requesting
// avx2 on a CPU without it fail fast with util::Status. Tests and benches
// may switch variants at runtime with set_variant(); switching while
// kernels are executing on other threads is not supported.
//
// Determinism contract (enforced by tests/test_kernel_equivalence.cpp):
//   * Within a variant, results are bit-identical run-to-run, across
//     engine thread counts, and across sample-batch partitionings: every
//     kernel is row-independent, and each output element's floating-point
//     operation sequence is fixed (the GEMM accumulates strictly
//     sequentially along k; lane grouping only varies along rows/columns).
//   * The fused avx2 LSTM gate kernel is bit-identical to the staged avx2
//     sequence (add_bias_rows → sigmoid/tanh → hadamard/hadamard_add),
//     because hadamard is defined as one vector multiply, hadamard_add as
//     one FMA, and both paths share the same 4-lane exp — this is what
//     keeps inference sessions bit-identical to the training-path layers
//     under either variant.
//   * Across variants, results drift only by reassociation/contraction:
//     per-element ULP-bounded, never structurally different.
#pragma once

#include <cstddef>
#include <string_view>

#include "util/status.hpp"

namespace ranknet::tensor::kernels {

enum class Variant { kScalar = 0, kAvx2 = 1 };

/// "scalar" / "avx2".
const char* variant_name(Variant v);

/// True when the running CPU can execute the variant (kScalar: always).
bool cpu_supports(Variant v);

/// Activation codes for the fused dense epilogue (mirrors nn::Activation;
/// kept as a plain enum so tensor does not depend on nn).
enum class DenseAct { kNone = 0, kRelu = 1, kTanh = 2, kSigmoid = 3 };

/// Function-pointer table of the dispatched microkernels. Raw-pointer
/// signatures so the table is shared by the Matrix (training) and view
/// (inference) faces. Entries that are nullptr fall back to the staged
/// scalar sequence in kernels.cpp (the scalar table keeps the fused
/// entries null so the reference path stays byte-frozen).
struct Dispatch {
  Variant variant = Variant::kScalar;

  /// C = alpha*A*B + beta*C, A (m x k), B (k x n), all row-major dense.
  /// Contract: each C element accumulates strictly sequentially along k
  /// (one chained FMA per element), and beta = 1 continues that chain from
  /// the value already in C — so the LSTM cell's x*wx (beta 0) then
  /// h*wh (beta 1) pair rounds the same in every variant.
  void (*gemm_nn)(double alpha, const double* a, const double* b, double beta,
                  double* c, std::size_t m, std::size_t k, std::size_t n) =
      nullptr;
  /// In-place elementwise maps.
  void (*sigmoid)(double* x, std::size_t n) = nullptr;
  void (*tanh)(double* x, std::size_t n) = nullptr;
  /// o = x ⊙ y (one multiply per element).
  void (*hadamard)(const double* x, const double* y, double* o,
                   std::size_t n) = nullptr;
  /// o += x ⊙ y (one FMA per element in the avx2 variant).
  void (*hadamard_add)(const double* x, const double* y, double* o,
                       std::size_t n) = nullptr;
  /// m (rows x cols) += bias broadcast over rows.
  void (*add_bias_rows)(double* m, const double* bias, std::size_t rows,
                        std::size_t cols) = nullptr;

  /// Fused LSTM gate epilogue after the gate GEMM pair. gates is (batch x 4H),
  /// bias has 4H entries, gate column layout [i f g o]; c and h are
  /// (batch x hidden), c updated in place. nullptr = staged fallback.
  void (*lstm_gates)(const double* gates, const double* bias, double* c,
                     double* h, std::size_t batch, std::size_t hidden) =
      nullptr;
  /// Fused dense epilogue: y = act(y + bias) in one pass over y
  /// (rows x cols). nullptr = staged fallback.
  void (*dense_epilogue)(double* y, const double* bias, std::size_t rows,
                         std::size_t cols, DenseAct act) = nullptr;
};

/// The active table. First use resolves RANKNET_KERNEL (throwing
/// std::runtime_error on an invalid value — fail fast at startup) and
/// otherwise picks the best supported variant.
const Dispatch& dispatch();

/// Variant of the active table.
Variant active_variant();

/// Direct access to a variant's table (differential tests).
/// Requesting an unsupported variant's table is allowed (the pointers are
/// valid functions); executing it on an unsupported CPU is not.
const Dispatch& table(Variant v);

/// Switch the active table. Fails with kFailedPrecondition when the CPU
/// lacks the variant. Overrides any earlier RANKNET_KERNEL choice.
util::Status set_variant(Variant v);

/// "scalar" / "avx2" → Variant; anything else is
/// kInvalidArgument.
util::Result<Variant> parse_variant(std::string_view s);

/// Apply an override as RANKNET_KERNEL would: nullptr or "" selects the
/// best supported variant; otherwise parse_variant + set_variant.
util::Status apply_env_override(const char* value);

/// Books one dispatched-kernel execution into the per-variant obs counters
/// ("tensor.kernel.<variant>.calls"). Called by the kernel wrappers in
/// kernels.cpp; exposed so tests can reason about it. Hot path: one
/// relaxed atomic add.
void note_call(Variant v);

}  // namespace ranknet::tensor::kernels
