// AVX2+FMA microkernels (4-wide doubles) for the dispatched kernel layer.
// This translation unit is compiled with -mavx2 -mfma regardless of the
// global architecture flags; nothing here runs unless
// kernels::cpu_supports(kAvx2) said the CPU can execute it.
//
// Determinism rules every kernel below obeys (tests/test_kernel_equivalence
// enforces them):
//   * Row independence: output row i depends only on input row i (plus
//     shared read-only operands), so engine thread count and sample-batch
//     partitioning cannot change results.
//   * Fixed per-element operation order: the GEMM accumulates strictly
//     sequentially along k with one FMA per term (beta = 1 continues the
//     chain from C), so the LSTM cell's beta=0/beta=1 gate GEMM pair rounds
//     as in the scalar variant's order, and tile / remainder shape never
//     changes an element's rounding sequence.
//   * Lane-pure elementwise math: sigmoid/tanh are built from one shared
//     4-lane exp whose every operation is lane-wise, so gathering,
//     scattering, or fusing the gate nonlinearities cannot change a single
//     element's result. The fused LSTM gate kernel therefore matches the
//     staged avx2 sequence (add_bias_rows → sigmoid/tanh →
//     hadamard/hadamard_add, where hadamard is one multiply and
//     hadamard_add one FMA) bit for bit.
//   * Remainder columns use masked loads/stores (or a zero-padded lane
//     buffer) running the same full-lane arithmetic, never a different
//     scalar tail loop — non-multiple-of-4 hidden sizes round identically
//     to full lanes.
#include "tensor/simd_kernels_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ranknet::tensor::detail {

namespace {

// ---- lane helpers --------------------------------------------------------

/// All-ones in the first r lanes (1 <= r <= 4); used with maskload /
/// maskstore so remainder columns never read or write out of bounds.
inline __m256i tail_mask(std::size_t r) {
  alignas(32) static const std::int64_t kBits[8] = {-1, -1, -1, -1,
                                                    0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + (4 - r)));
}

/// 4-lane clone of kernels.cpp's vec_exp: same Cephes split/Pade constants,
/// same operation shape, so scalar-vs-avx2 drift stays within a couple of
/// ulps. Operand order in min/max keeps NaN propagation identical to the
/// scalar clamp (NaN compares false, the input lane wins).
inline __m256d exp_clamp4(__m256d x) {
  x = _mm256_min_pd(_mm256_set1_pd(708.0), x);
  x = _mm256_max_pd(_mm256_set1_pd(-708.0), x);
  return x;
}

inline __m256d exp4(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.44269504088896340736);
  const __m256d ln2hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2lo = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, ln2hi, x);
  r = _mm256_fnmadd_pd(n, ln2lo, r);
  const __m256d z = _mm256_mul_pd(r, r);
  const __m256d px = _mm256_mul_pd(
      r, _mm256_fmadd_pd(
             z,
             _mm256_fmadd_pd(z, _mm256_set1_pd(1.26177193074810590878e-4),
                             _mm256_set1_pd(3.02994407707441961300e-2)),
             _mm256_set1_pd(9.99999999999999999910e-1)));
  const __m256d qx = _mm256_fmadd_pd(
      z,
      _mm256_fmadd_pd(
          z,
          _mm256_fmadd_pd(z, _mm256_set1_pd(3.00198505138664455042e-6),
                          _mm256_set1_pd(2.52448340349684104192e-3)),
          _mm256_set1_pd(2.27265548208155028766e-1)),
      _mm256_set1_pd(2.00000000000000000005e0));
  const __m256d e = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), px),
                    _mm256_sub_pd(qx, px)));
  // 2^n through the exponent bits; n is integral in [-1021, 1021] after the
  // clamp, so int32 conversion is exact and the biased exponent is normal.
  const __m128i ni = _mm256_cvtpd_epi32(n);
  const __m256i nl = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(ni), _mm256_set1_epi64x(1023)),
      52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(nl));
}

inline __m256d sigmoid4(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
  return _mm256_div_pd(one, _mm256_add_pd(one, exp4(exp_clamp4(neg))));
}

inline __m256d tanh4(__m256d x) {
  // tanh(x) = sign(x) * (1 - 2/(exp(2|x|)+1)), like the scalar kernel; the
  // magnitude term is non-negative so copysign is a plain sign-bit OR.
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d a = _mm256_andnot_pd(sign_mask, x);
  const __m256d e = exp4(exp_clamp4(_mm256_mul_pd(two, a)));
  const __m256d t =
      _mm256_sub_pd(one, _mm256_div_pd(two, _mm256_add_pd(e, one)));
  return _mm256_or_pd(t, _mm256_and_pd(sign_mask, x));
}

/// In-place elementwise map; the tail runs the same full-lane math over a
/// zero-padded buffer so remainder elements round identically.
template <typename F>
inline void map_inplace(double* x, std::size_t n, F f) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, f(_mm256_loadu_pd(x + i)));
  }
  if (i < n) {
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) buf[j - i] = x[j];
    _mm256_store_pd(buf, f(_mm256_load_pd(buf)));
    for (std::size_t j = i; j < n; ++j) x[j] = buf[j - i];
  }
}

// ---- GEMM ----------------------------------------------------------------

// Register-blocked C = alpha*A*B + beta*C panels: MR rows x (NV*4) columns
// of C accumulate in ymm registers while the k loop streams B row panels —
// the B traffic that dominates the scalar kernel is amortized over MR rows.
// Every accumulator follows the strict sequential-k FMA chain of its
// element; alpha is pre-multiplied into the broadcast A scalar exactly as
// the scalar kernel does.

template <int MR, int NV>
inline void gemm_panel(double alpha, const double* const* arow,
                       const double* b, double beta, double* const* crow,
                       std::size_t k, std::size_t n, std::size_t j) {
  __m256d acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (beta == 0.0) {
        acc[r][v] = _mm256_setzero_pd();
      } else {
        const __m256d cv = _mm256_loadu_pd(crow[r] + j + 4 * v);
        acc[r][v] =
            beta == 1.0 ? cv : _mm256_mul_pd(_mm256_set1_pd(beta), cv);
      }
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const double* bp = b + p * n + j;
    __m256d bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_pd(bp + 4 * v);
    for (int r = 0; r < MR; ++r) {
      const __m256d av = _mm256_set1_pd(alpha * arow[r][p]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_pd(crow[r] + j + 4 * v, acc[r][v]);
    }
  }
}

template <int MR>
inline void gemm_panel_masked(double alpha, const double* const* arow,
                              const double* b, double beta,
                              double* const* crow, std::size_t k,
                              std::size_t n, std::size_t j, __m256i mask) {
  __m256d acc[MR];
  for (int r = 0; r < MR; ++r) {
    if (beta == 0.0) {
      acc[r] = _mm256_setzero_pd();
    } else {
      const __m256d cv = _mm256_maskload_pd(crow[r] + j, mask);
      acc[r] = beta == 1.0 ? cv : _mm256_mul_pd(_mm256_set1_pd(beta), cv);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d bv = _mm256_maskload_pd(b + p * n + j, mask);
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_pd(_mm256_set1_pd(alpha * arow[r][p]), bv,
                               acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) _mm256_maskstore_pd(crow[r] + j, mask, acc[r]);
}

template <int MR>
inline void gemm_rows(double alpha, const double* a, const double* b,
                      double beta, double* c, std::size_t i, std::size_t k,
                      std::size_t n) {
  const double* arow[MR];
  double* crow[MR];
  for (int r = 0; r < MR; ++r) {
    arow[r] = a + (i + r) * k;
    crow[r] = c + (i + r) * n;
  }
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    gemm_panel<MR, 2>(alpha, arow, b, beta, crow, k, n, j);
  }
  if (j + 4 <= n) {
    gemm_panel<MR, 1>(alpha, arow, b, beta, crow, k, n, j);
    j += 4;
  }
  if (j < n) {
    gemm_panel_masked<MR>(alpha, arow, b, beta, crow, k, n, j,
                          tail_mask(n - j));
  }
}

/// n == 1 fast path: a strided GEMM degenerates into independent row dot
/// products (the Gaussian head's mu/sigma projections). The dot vectorizes
/// along k (4 parallel partial sums, fixed combine order), which
/// reassociates relative to the scalar chain — cross-variant drift only,
/// deterministic within the variant.
void gemv_n1(double alpha, const double* a, const double* b, double beta,
             double* c, std::size_t m, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + i * k;
    __m256d acc = _mm256_setzero_pd();
    std::size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(ai + p), _mm256_loadu_pd(b + p),
                            acc);
    }
    if (p < k) {
      const __m256i mask = tail_mask(k - p);
      acc = _mm256_fmadd_pd(_mm256_maskload_pd(ai + p, mask),
                            _mm256_maskload_pd(b + p, mask), acc);
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    const double dot =
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
    const double base = beta == 0.0 ? 0.0 : beta * c[i];
    c[i] = base + alpha * dot;
  }
}

void gemm_nn_avx2(double alpha, const double* a, const double* b, double beta,
                  double* c, std::size_t m, std::size_t k, std::size_t n) {
  if (n == 1) {
    gemv_n1(alpha, a, b, beta, c, m, k);
    return;
  }
  // Six-row blocks; the remainder rows (m % 6) go to the matching smaller
  // kernel. MR=6 with NV=2 keeps 12 independent FMA chains live per panel
  // — enough to cover the 4-cycle FMA latency at 2 issues/cycle — while
  // fitting in registers (12 accumulators + 2 B vectors + 1 broadcast of
  // 16 ymm).
  for (std::size_t i = 0; i < m; i += 6) {
    switch (std::min<std::size_t>(6, m - i)) {
      case 6:
        gemm_rows<6>(alpha, a, b, beta, c, i, k, n);
        break;
      case 5:
        gemm_rows<5>(alpha, a, b, beta, c, i, k, n);
        break;
      case 4:
        gemm_rows<4>(alpha, a, b, beta, c, i, k, n);
        break;
      case 3:
        gemm_rows<3>(alpha, a, b, beta, c, i, k, n);
        break;
      case 2:
        gemm_rows<2>(alpha, a, b, beta, c, i, k, n);
        break;
      default:
        gemm_rows<1>(alpha, a, b, beta, c, i, k, n);
        break;
    }
  }
}

// ---- elementwise ---------------------------------------------------------

void sigmoid_avx2(double* x, std::size_t n) {
  map_inplace(x, n, [](__m256d v) { return sigmoid4(v); });
}

void tanh_avx2(double* x, std::size_t n) {
  map_inplace(x, n, [](__m256d v) { return tanh4(v); });
}

void hadamard_avx2(const double* x, const double* y, double* o,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        o + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  if (i < n) {
    const __m256i mask = tail_mask(n - i);
    _mm256_maskstore_pd(o + i, mask,
                        _mm256_mul_pd(_mm256_maskload_pd(x + i, mask),
                                      _mm256_maskload_pd(y + i, mask)));
  }
}

void hadamard_add_avx2(const double* x, const double* y, double* o,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(o + i,
                     _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                                     _mm256_loadu_pd(y + i),
                                     _mm256_loadu_pd(o + i)));
  }
  if (i < n) {
    const __m256i mask = tail_mask(n - i);
    _mm256_maskstore_pd(o + i, mask,
                        _mm256_fmadd_pd(_mm256_maskload_pd(x + i, mask),
                                        _mm256_maskload_pd(y + i, mask),
                                        _mm256_maskload_pd(o + i, mask)));
  }
}

void add_bias_rows_avx2(double* m, const double* bias, std::size_t rows,
                        std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = m + r * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      _mm256_storeu_pd(
          row + c,
          _mm256_add_pd(_mm256_loadu_pd(row + c), _mm256_loadu_pd(bias + c)));
    }
    if (c < cols) {
      const __m256i mask = tail_mask(cols - c);
      _mm256_maskstore_pd(
          row + c, mask,
          _mm256_add_pd(_mm256_maskload_pd(row + c, mask),
                        _mm256_maskload_pd(bias + c, mask)));
    }
  }
}

// ---- fused LSTM gate epilogue -------------------------------------------

/// One pass over the gate matrix: bias add, sigmoid on i/f/o, tanh on g,
/// c = f⊙c + i⊙g (multiply then FMA, matching the staged
/// hadamard/hadamard_add pair), h = o ⊙ tanh(c). Replaces ~8 memory sweeps
/// of the staged sequence with one read of gates and one read/write of c/h.
void lstm_gates_avx2(const double* gates, const double* bias, double* c,
                     double* h, std::size_t batch, std::size_t hidden) {
  const std::size_t h1 = hidden, h2 = 2 * hidden, h3 = 3 * hidden;
  for (std::size_t r = 0; r < batch; ++r) {
    const double* g = gates + r * 4 * hidden;
    double* cr = c + r * hidden;
    double* hr = h + r * hidden;
    std::size_t j = 0;
    for (; j + 4 <= hidden; j += 4) {
      const __m256d iv = sigmoid4(_mm256_add_pd(_mm256_loadu_pd(g + j),
                                                _mm256_loadu_pd(bias + j)));
      const __m256d fv =
          sigmoid4(_mm256_add_pd(_mm256_loadu_pd(g + h1 + j),
                                 _mm256_loadu_pd(bias + h1 + j)));
      const __m256d gv = tanh4(_mm256_add_pd(_mm256_loadu_pd(g + h2 + j),
                                             _mm256_loadu_pd(bias + h2 + j)));
      const __m256d ov =
          sigmoid4(_mm256_add_pd(_mm256_loadu_pd(g + h3 + j),
                                 _mm256_loadu_pd(bias + h3 + j)));
      __m256d cv = _mm256_loadu_pd(cr + j);
      cv = _mm256_fmadd_pd(iv, gv, _mm256_mul_pd(fv, cv));
      _mm256_storeu_pd(cr + j, cv);
      _mm256_storeu_pd(hr + j, _mm256_mul_pd(ov, tanh4(cv)));
    }
    if (j < hidden) {
      const __m256i mask = tail_mask(hidden - j);
      const __m256d iv =
          sigmoid4(_mm256_add_pd(_mm256_maskload_pd(g + j, mask),
                                 _mm256_maskload_pd(bias + j, mask)));
      const __m256d fv =
          sigmoid4(_mm256_add_pd(_mm256_maskload_pd(g + h1 + j, mask),
                                 _mm256_maskload_pd(bias + h1 + j, mask)));
      const __m256d gv =
          tanh4(_mm256_add_pd(_mm256_maskload_pd(g + h2 + j, mask),
                              _mm256_maskload_pd(bias + h2 + j, mask)));
      const __m256d ov =
          sigmoid4(_mm256_add_pd(_mm256_maskload_pd(g + h3 + j, mask),
                                 _mm256_maskload_pd(bias + h3 + j, mask)));
      __m256d cv = _mm256_maskload_pd(cr + j, mask);
      cv = _mm256_fmadd_pd(iv, gv, _mm256_mul_pd(fv, cv));
      _mm256_maskstore_pd(cr + j, mask, cv);
      _mm256_maskstore_pd(hr + j, mask, _mm256_mul_pd(ov, tanh4(cv)));
    }
  }
}

// ---- fused dense epilogue ------------------------------------------------

template <kernels::DenseAct A>
inline __m256d dense_act4(__m256d v) {
  if constexpr (A == kernels::DenseAct::kRelu) {
    // max(v, 0) with v as the first operand: v>0 ? v : 0, matching the
    // scalar ternary (NaN and -0.0 both map to +0.0 either way).
    return _mm256_max_pd(v, _mm256_setzero_pd());
  } else if constexpr (A == kernels::DenseAct::kTanh) {
    return tanh4(v);
  } else if constexpr (A == kernels::DenseAct::kSigmoid) {
    return sigmoid4(v);
  } else {
    return v;
  }
}

template <kernels::DenseAct A>
void dense_epilogue_impl(double* y, const double* bias, std::size_t rows,
                         std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = y + r * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d v = _mm256_add_pd(_mm256_loadu_pd(row + c),
                                      _mm256_loadu_pd(bias + c));
      _mm256_storeu_pd(row + c, dense_act4<A>(v));
    }
    if (c < cols) {
      const __m256i mask = tail_mask(cols - c);
      const __m256d v = _mm256_add_pd(_mm256_maskload_pd(row + c, mask),
                                      _mm256_maskload_pd(bias + c, mask));
      _mm256_maskstore_pd(row + c, mask, dense_act4<A>(v));
    }
  }
}

void dense_epilogue_avx2(double* y, const double* bias, std::size_t rows,
                         std::size_t cols, kernels::DenseAct act) {
  switch (act) {
    case kernels::DenseAct::kRelu:
      dense_epilogue_impl<kernels::DenseAct::kRelu>(y, bias, rows, cols);
      break;
    case kernels::DenseAct::kTanh:
      dense_epilogue_impl<kernels::DenseAct::kTanh>(y, bias, rows, cols);
      break;
    case kernels::DenseAct::kSigmoid:
      dense_epilogue_impl<kernels::DenseAct::kSigmoid>(y, bias, rows, cols);
      break;
    case kernels::DenseAct::kNone:
      dense_epilogue_impl<kernels::DenseAct::kNone>(y, bias, rows, cols);
      break;
  }
}

}  // namespace

const kernels::Dispatch& avx2_table() {
  static const kernels::Dispatch t = [] {
    kernels::Dispatch d;
    d.variant = kernels::Variant::kAvx2;
    d.gemm_nn = &gemm_nn_avx2;
    d.sigmoid = &sigmoid_avx2;
    d.tanh = &tanh_avx2;
    d.hadamard = &hadamard_avx2;
    d.hadamard_add = &hadamard_add_avx2;
    d.add_bias_rows = &add_bias_rows_avx2;
    d.lstm_gates = &lstm_gates_avx2;
    d.dense_epilogue = &dense_epilogue_avx2;
    return d;
  }();
  return t;
}

}  // namespace ranknet::tensor::detail

#else  // non-x86: the avx2 table aliases scalar; cpu_supports() gates it.

namespace ranknet::tensor::detail {
const kernels::Dispatch& avx2_table() { return scalar_table(); }
}  // namespace ranknet::tensor::detail

#endif
