#include "tensor/kernels.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/simd_kernels_detail.hpp"
#include "util/timer.hpp"

namespace ranknet::tensor {

namespace {

/// Branch-free double-precision exp, accurate to ~2 ulp over the clamped
/// domain [-708, 708]. The point is auto-vectorization: libm's exp is a
/// scalar call the compiler cannot vectorize, and the gate nonlinearities
/// (sigmoid/tanh over rows x 4H elements per LSTM step) are the dominant
/// non-GEMM cost of the MC decode path. Cephes-style: split x = n*ln2 + r,
/// evaluate a Pade approximant of exp(r) on [-ln2/2, ln2/2], scale by 2^n
/// through the exponent bits. Callers clamp the argument so n stays inside
/// the normal-exponent range.
inline double vec_exp(double x) {
  constexpr double kLog2e = 1.44269504088896340736;
  constexpr double kLn2Hi = 6.93145751953125e-1;
  constexpr double kLn2Lo = 1.42860682030941723212e-6;
  const double n = std::nearbyint(x * kLog2e);
  const double r = (x - n * kLn2Hi) - n * kLn2Lo;
  const double z = r * r;
  const double px =
      r * (9.99999999999999999910e-1 +
           z * (3.02994407707441961300e-2 + z * 1.26177193074810590878e-4));
  const double qx =
      2.00000000000000000005e0 +
      z * (2.27265548208155028766e-1 +
           z * (2.52448340349684104192e-3 + z * 3.00198505138664455042e-6));
  const double e = 1.0 + 2.0 * px / (qx - px);
  const auto biased = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(n) + 1023);
  return e * std::bit_cast<double>(biased << 52);
}

/// Clamp that keeps vec_exp's 2^n scale inside normal doubles; at the
/// boundary exp is already ~1e-308 / ~1e308, far past every activation's
/// saturation point.
inline double exp_clamp(double x) {
  return x < -708.0 ? -708.0 : (x > 708.0 ? 708.0 : x);
}

/// Books a kernel invocation; times it only when profiling is enabled.
template <typename Fn>
void run_kernel(Kernel k, std::uint64_t flops, std::uint64_t bytes, Fn&& fn) {
  auto& counters = OpCounters::instance();
  if (counters.profiling()) {
    util::Timer t;
    fn();
    counters.record(k, flops, bytes, t.seconds());
  } else {
    fn();
    counters.record(k, flops, bytes);
  }
}

}  // namespace

// The gemm inner loops below run over raw pointers so the Matrix (training)
// and view (inference) faces execute the same compiled code — that shared
// compilation is what guarantees both paths round identically. The loops
// that sit on the MC decode path live in tensor::detail (declared in
// simd_kernels_detail.hpp) so the dispatch layer can install them as the
// scalar reference variant; the rest stay file-local.
namespace detail {

// C = alpha*A*B + beta*C with A (m x k), B (k x n): ikj loop, contiguous
// inner access on both B and C rows so the compiler vectorizes it. The
// p-loop is unrolled by four with the partial sum chained through a
// register, which removes three of every four load/store round-trips on
// the C row — the bottleneck of the plain axpy form. Each `t += a*b` stays
// its own mul-add (one rounding), so the per-element accumulation sequence
// over p is unchanged: results are bit-identical to the unrolled-by-one
// loop, and a beta = 1 call continues each element's chain from C (the
// chunk boundary only moves values through memory, which does not
// re-round doubles).
void gemm_nn_scalar(double alpha, const double* a, const double* b,
                    double beta, double* c, std::size_t m, std::size_t k,
                    std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c + i * n;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    const double* ai = a + i * k;
    std::size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const double a0 = alpha * ai[p];
      const double a1 = alpha * ai[p + 1];
      const double a2 = alpha * ai[p + 2];
      const double a3 = alpha * ai[p + 3];
      const double* b0 = b + p * n;
      const double* b1 = b0 + n;
      const double* b2 = b1 + n;
      const double* b3 = b2 + n;
      for (std::size_t j = 0; j < n; ++j) {
        double t = ci[j];
        t += a0 * b0[j];
        t += a1 * b1[j];
        t += a2 * b2[j];
        t += a3 * b3[j];
        ci[j] = t;
      }
    }
    for (; p < k; ++p) {
      const double aip = alpha * ai[p];
      const double* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void sigmoid_scalar(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 / (1.0 + vec_exp(exp_clamp(-x[i])));
  }
}

void tanh_scalar(double* x, std::size_t n) {
  // tanh(x) = sign(x) * (1 - 2/(exp(2|x|)+1)); using |x| keeps the exp
  // argument non-negative so the quotient stays in (0, 1] and the final
  // subtraction is exact (Sterbenz) — absolute error stays ~1 ulp of 1.
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::abs(x[i]);
    const double t = 1.0 - 2.0 / (vec_exp(exp_clamp(2.0 * a)) + 1.0);
    x[i] = std::copysign(t, x[i]);
  }
}

void hadamard_scalar(const double* x, const double* y, double* o,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
}

void hadamard_add_scalar(const double* x, const double* y, double* o,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] += x[i] * y[i];
}

void add_bias_rows_scalar(double* m, const double* bias, std::size_t rows,
                          std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = m + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

}  // namespace detail

namespace {

// C = alpha*A^T*B + beta*C with A (k x m), B (k x n).
void gemm_tn(double alpha, const double* a, const double* b, double beta,
             double* c, std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c + i * n;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = alpha * a[p * m + i];
      if (aip == 0.0) continue;
      const double* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

// C = alpha*A*B^T + beta*C with A (m x k), B (n x k): dot products of rows.
void gemm_nt(double alpha, const double* a, const double* b, double beta,
             double* c, std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + i * k;
    double* ci = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = alpha * acc + (beta == 0.0 ? 0.0 : beta * ci[j]);
    }
  }
}

// C = alpha*A^T*B^T + beta*C with A (k x m), B (n x k). Rare; simple loops.
void gemm_tt(double alpha, const double* a, const double* b, double beta,
             double* c, std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += a[p * m + i] * b[j * k + p];
      ci[j] = alpha * acc + (beta == 0.0 ? 0.0 : beta * ci[j]);
    }
  }
}

}  // namespace

void gemm(double alpha, ConstMatrixView a, bool trans_a, ConstMatrixView b,
          bool trans_b, double beta, MatrixView c) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t kb = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  if (k != kb || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  const std::uint64_t flops = 2ULL * m * n * k;
  const std::uint64_t bytes =
      8ULL * (m * k + k * n + (beta == 0.0 ? 1ULL : 2ULL) * m * n);
  run_kernel(Kernel::kMatMul, flops, bytes, [&] {
    if (!trans_a && !trans_b) {
      // The only gemm shape on the MC decode path — runtime-dispatched.
      // The transposed forms below are training-only (gradients) and stay
      // on the scalar reference loops.
      const auto& d = kernels::dispatch();
      kernels::note_call(d.variant);
      d.gemm_nn(alpha, a.data(), b.data(), beta, c.data(), m, k, n);
    } else if (trans_a && !trans_b) {
      gemm_tn(alpha, a.data(), b.data(), beta, c.data(), m, k, n);
    } else if (!trans_a && trans_b) {
      gemm_nt(alpha, a.data(), b.data(), beta, c.data(), m, k, n);
    } else {
      gemm_tt(alpha, a.data(), b.data(), beta, c.data(), m, k, n);
    }
  });
}

void gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
          bool trans_b, double beta, Matrix& c) {
  gemm(alpha, ConstMatrixView(a), trans_a, ConstMatrixView(b), trans_b, beta,
       MatrixView(c));
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(1.0, a, false, b, false, 0.0, c);
  return c;
}

void add_inplace(MatrixView out, ConstMatrixView a) {
  assert(same_shape(out, a));
  const std::size_t n = out.size();
  run_kernel(Kernel::kAdd, n, 8ULL * 3 * n, [&] {
    double* o = out.data();
    const double* x = a.data();
    for (std::size_t i = 0; i < n; ++i) o[i] += x[i];
  });
}

void add_inplace(Matrix& out, const Matrix& a) {
  add_inplace(MatrixView(out), ConstMatrixView(a));
}

void axpy(double alpha, ConstMatrixView a, MatrixView out) {
  assert(same_shape(out, a));
  const std::size_t n = out.size();
  run_kernel(Kernel::kAdd, 2ULL * n, 8ULL * 3 * n, [&] {
    double* o = out.data();
    const double* x = a.data();
    for (std::size_t i = 0; i < n; ++i) o[i] += alpha * x[i];
  });
}

void axpy(double alpha, const Matrix& a, Matrix& out) {
  axpy(alpha, ConstMatrixView(a), MatrixView(out));
}

void scale_inplace(MatrixView out, double s) {
  const std::size_t n = out.size();
  run_kernel(Kernel::kMul, n, 8ULL * 2 * n, [&] {
    double* o = out.data();
    for (std::size_t i = 0; i < n; ++i) o[i] *= s;
  });
}

void scale_inplace(Matrix& out, double s) {
  scale_inplace(MatrixView(out), s);
}

void hadamard(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  assert(same_shape(a, b) && same_shape(out, a));
  const std::size_t n = out.size();
  const auto& d = kernels::dispatch();
  kernels::note_call(d.variant);
  run_kernel(Kernel::kMul, n, 8ULL * 3 * n,
             [&] { d.hadamard(a.data(), b.data(), out.data(), n); });
}

void hadamard(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.same_shape(b));
  if (!out.same_shape(a)) out = Matrix(a.rows(), a.cols());
  hadamard(ConstMatrixView(a), ConstMatrixView(b), MatrixView(out));
}

void hadamard_add(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  assert(same_shape(a, b) && same_shape(out, a));
  const std::size_t n = out.size();
  const auto& d = kernels::dispatch();
  kernels::note_call(d.variant);
  run_kernel(Kernel::kMul, 2ULL * n, 8ULL * 4 * n,
             [&] { d.hadamard_add(a.data(), b.data(), out.data(), n); });
}

void hadamard_add(const Matrix& a, const Matrix& b, Matrix& out) {
  hadamard_add(ConstMatrixView(a), ConstMatrixView(b), MatrixView(out));
}

void add_bias_rows(MatrixView m, std::span<const double> bias) {
  assert(bias.size() == m.cols());
  const std::size_t n = m.size();
  const auto& d = kernels::dispatch();
  kernels::note_call(d.variant);
  run_kernel(Kernel::kAdd, n, 8ULL * (2 * n + bias.size()), [&] {
    d.add_bias_rows(m.data(), bias.data(), m.rows(), m.cols());
  });
}

void add_bias_rows(Matrix& m, std::span<const double> bias) {
  add_bias_rows(MatrixView(m), bias);
}

void sum_rows(const Matrix& m, std::span<double> bias_grad) {
  assert(bias_grad.size() == m.cols());
  const std::size_t n = m.size();
  run_kernel(Kernel::kAdd, n, 8ULL * (n + 2 * bias_grad.size()), [&] {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const double* row = m.data() + r * m.cols();
      for (std::size_t c = 0; c < m.cols(); ++c) bias_grad[c] += row[c];
    }
  });
}

void sigmoid_inplace(MatrixView m) {
  const std::size_t n = m.size();
  // ~4 flops per element (exp approximated as one op plus add/div).
  const auto& d = kernels::dispatch();
  kernels::note_call(d.variant);
  run_kernel(Kernel::kSigmoid, 4ULL * n, 8ULL * 2 * n,
             [&] { d.sigmoid(m.data(), n); });
}

void sigmoid_inplace(Matrix& m) { sigmoid_inplace(MatrixView(m)); }

void tanh_inplace(MatrixView m) {
  const std::size_t n = m.size();
  const auto& d = kernels::dispatch();
  kernels::note_call(d.variant);
  run_kernel(Kernel::kTanh, 4ULL * n, 8ULL * 2 * n,
             [&] { d.tanh(m.data(), n); });
}

void tanh_inplace(Matrix& m) { tanh_inplace(MatrixView(m)); }

void softplus_inplace(MatrixView m) {
  const std::size_t n = m.size();
  run_kernel(Kernel::kSigmoid, 4ULL * n, 8ULL * 2 * n, [&] {
    double* x = m.data();
    for (std::size_t i = 0; i < n; ++i) {
      // Numerically stable softplus: max(x,0) + log1p(exp(-|x|)).
      x[i] = std::max(x[i], 0.0) + std::log1p(std::exp(-std::abs(x[i])));
    }
  });
}

void softplus_inplace(Matrix& m) { softplus_inplace(MatrixView(m)); }

void softmax_rows(MatrixView m) {
  const std::size_t n = m.size();
  run_kernel(Kernel::kSoftmax, 5ULL * n, 8ULL * 2 * n, [&] {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      double* row = m.data() + r * m.cols();
      double mx = row[0];
      for (std::size_t c = 1; c < m.cols(); ++c) mx = std::max(mx, row[c]);
      double total = 0.0;
      for (std::size_t c = 0; c < m.cols(); ++c) {
        row[c] = std::exp(row[c] - mx);
        total += row[c];
      }
      const double inv = 1.0 / total;
      for (std::size_t c = 0; c < m.cols(); ++c) row[c] *= inv;
    }
  });
}

void softmax_rows(Matrix& m) { softmax_rows(MatrixView(m)); }

void copy(ConstMatrixView src, MatrixView dst) {
  assert(same_shape(src, dst));
  run_kernel(Kernel::kDataMove, 0, 8ULL * 2 * src.size(), [&] {
    const double* s = src.data();
    double* d = dst.data();
    for (std::size_t i = 0; i < src.size(); ++i) d[i] = s[i];
  });
}

void copy(const Matrix& src, Matrix& dst) {
  run_kernel(Kernel::kDataMove, 0, 8ULL * 2 * src.size(), [&] { dst = src; });
}

double squared_norm(const Matrix& m) {
  double s = 0.0;
  const double* x = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) s += x[i] * x[i];
  return s;
}

void lstm_cell_step(ConstMatrixView x, ConstMatrixView wx, ConstMatrixView wh,
                    std::span<const double> bias, MatrixView c, MatrixView h,
                    const LstmStepScratch& scratch) {
  const std::size_t batch = x.rows();
  const std::size_t hidden = c.cols();
  assert(wx.rows() == x.cols() && wx.cols() == 4 * hidden);
  assert(wh.rows() == hidden && wh.cols() == 4 * hidden);
  assert(bias.size() == 4 * hidden);
  assert(h.rows() == batch && h.cols() == hidden && c.rows() == batch);
  assert(scratch.gates.rows() == batch && scratch.gates.cols() == 4 * hidden);
  assert(scratch.sig.rows() == batch && scratch.sig.cols() == 3 * hidden);
  assert(scratch.tg.rows() == batch && scratch.tg.cols() == hidden);
  assert(scratch.tanh_c.rows() == batch && scratch.tanh_c.cols() == hidden);

  // The training cell's GEMM pair (h still holds h_prev here), booked as
  // one kMatMul record for the fused op: every record is three updates of
  // process-wide counters, which concurrent batch-1 encoder steps share.
  MatrixView gates = scratch.gates;
  const std::size_t in = x.cols(), n = 4 * hidden;
  const auto& disp = kernels::dispatch();
  run_kernel(Kernel::kMatMul, 2ULL * batch * n * (in + hidden),
             8ULL * (batch * in + in * n + batch * hidden + hidden * n +
                     3ULL * batch * n),
             [&] {
               kernels::note_call(disp.variant);
               disp.gemm_nn(1.0, x.data(), wx.data(), 0.0, gates.data(), batch,
                            in, n);
               disp.gemm_nn(1.0, h.data(), wh.data(), 1.0, gates.data(),
                            batch, hidden, n);
             });

  if (disp.lstm_gates != nullptr) {
    // Fused gate epilogue (avx2): bias + activations + state update in one
    // pass over the gate matrix. Bit-identical to the staged sequence below
    // under the same variant, because the staged kernels' avx2 lane math
    // (add, sigmoid/tanh, multiply, FMA) is exactly what the fused kernel
    // runs per element. Books the same seven records the staged sequence
    // would (fig11/fig12 breakdowns stay variant-invariant); when profiling,
    // the fused walltime is split across them in proportion to flops.
    kernels::note_call(disp.variant);
    auto& counters = OpCounters::instance();
    double secs = 0.0;
    if (counters.profiling()) {
      util::Timer t;
      disp.lstm_gates(gates.data(), bias.data(), c.data(), h.data(), batch,
                      hidden);
      secs = t.seconds();
    } else {
      disp.lstm_gates(gates.data(), bias.data(), c.data(), h.data(), batch,
                      hidden);
    }
    const std::uint64_t hb = batch * hidden;
    const std::uint64_t n4 = 4 * hb, n3 = 3 * hb;
    const Kernel kinds[7] = {Kernel::kAdd,  Kernel::kSigmoid, Kernel::kTanh,
                             Kernel::kMul,  Kernel::kMul,     Kernel::kTanh,
                             Kernel::kMul};
    const std::uint64_t flops[7] = {n4, 4 * n3, 4 * hb, hb, 2 * hb,
                                    4 * hb, hb};
    const std::uint64_t bytes[7] = {
        8 * (2 * n4 + 4 * hidden), 8 * 2 * n3, 8 * 2 * hb, 8 * 3 * hb,
        8 * 4 * hb,                8 * 2 * hb, 8 * 3 * hb};
    const double total = 28.0 * static_cast<double>(hb);
    for (int i = 0; i < 7; ++i) {
      const double share =
          total > 0.0 ? secs * static_cast<double>(flops[i]) / total : 0.0;
      counters.record(kinds[i], flops[i], bytes[i], share);
    }
    return;
  }

  add_bias_rows(gates, bias);

  // Split activation: sigmoid on [i f o], tanh on [g], via contiguous
  // gather/scatter — the same staging (and therefore the same kernel
  // bookings) as the training-path cell. Gate layout: [i (h), f, g, o].
  MatrixView sig = scratch.sig;
  MatrixView tg = scratch.tg;
  for (std::size_t r = 0; r < batch; ++r) {
    const double* g = gates.data() + r * 4 * hidden;
    double* s = sig.data() + r * 3 * hidden;
    double* t = tg.data() + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      s[j] = g[j];                            // i
      s[hidden + j] = g[hidden + j];          // f
      s[2 * hidden + j] = g[3 * hidden + j];  // o
      t[j] = g[2 * hidden + j];               // g
    }
  }
  sigmoid_inplace(sig);
  tanh_inplace(tg);
  for (std::size_t r = 0; r < batch; ++r) {
    double* g = gates.data() + r * 4 * hidden;
    const double* s = sig.data() + r * 3 * hidden;
    const double* t = tg.data() + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      g[j] = s[j];
      g[hidden + j] = s[hidden + j];
      g[3 * hidden + j] = s[2 * hidden + j];
      g[2 * hidden + j] = t[j];
    }
  }

  // c = f ⊙ c_prev + i ⊙ g, with c_prev living in (and overwritten by) c.
  MatrixView fgate = scratch.fgate, igate = scratch.igate,
             ggate = scratch.ggate, ogate = scratch.ogate;
  for (std::size_t r = 0; r < batch; ++r) {
    const double* g = gates.data() + r * 4 * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      igate(r, j) = g[j];
      fgate(r, j) = g[hidden + j];
      ggate(r, j) = g[2 * hidden + j];
      ogate(r, j) = g[3 * hidden + j];
    }
  }
  hadamard(fgate, c, c);
  hadamard_add(igate, ggate, c);
  {
    // Unbooked copy, mirroring the training cell's tanh_c = c assignment.
    const double* s = c.data();
    double* d = scratch.tanh_c.data();
    for (std::size_t i = 0; i < batch * hidden; ++i) d[i] = s[i];
  }
  tanh_inplace(scratch.tanh_c);
  hadamard(ogate, scratch.tanh_c, h);
}

void dense_forward(ConstMatrixView x, ConstMatrixView w,
                   std::span<const double> bias, kernels::DenseAct act,
                   MatrixView y) {
  assert(y.rows() == x.rows() && y.cols() == w.cols());
  assert(bias.size() == w.cols());
  gemm(1.0, x, false, w, false, 0.0, y);

  const auto& d = kernels::dispatch();
  if (d.dense_epilogue != nullptr) {
    // Fused bias + activation in one pass over y; per-element math matches
    // the staged add_bias_rows + activation sequence under the same
    // variant. Books the staged path's records (fused time, when profiling,
    // is attributed to the bias add).
    kernels::note_call(d.variant);
    auto& counters = OpCounters::instance();
    const std::size_t n = y.size();
    double secs = 0.0;
    if (counters.profiling()) {
      util::Timer t;
      d.dense_epilogue(y.data(), bias.data(), y.rows(), y.cols(), act);
      secs = t.seconds();
    } else {
      d.dense_epilogue(y.data(), bias.data(), y.rows(), y.cols(), act);
    }
    counters.record(Kernel::kAdd, n, 8ULL * (2 * n + bias.size()), secs);
    if (act == kernels::DenseAct::kTanh) {
      counters.record(Kernel::kTanh, 4ULL * n, 8ULL * 2 * n);
    } else if (act == kernels::DenseAct::kSigmoid) {
      counters.record(Kernel::kSigmoid, 4ULL * n, 8ULL * 2 * n);
    }
    return;
  }

  add_bias_rows(y, bias);
  switch (act) {
    case kernels::DenseAct::kNone:
      break;
    case kernels::DenseAct::kRelu:
      for (auto& v : y.flat()) v = v > 0.0 ? v : 0.0;
      break;
    case kernels::DenseAct::kTanh:
      tanh_inplace(y);
      break;
    case kernels::DenseAct::kSigmoid:
      sigmoid_inplace(y);
      break;
  }
}

void gaussian_head_forward(ConstMatrixView h, ConstMatrixView w_mu,
                           std::span<const double> b_mu,
                           ConstMatrixView w_sigma,
                           std::span<const double> b_sigma,
                           double sigma_floor, MatrixView mu,
                           MatrixView sigma) {
  // Two dispatched dense projections (n == 1 routes to the GEMV fast path
  // under avx2) plus the stable softplus and the floor add. The sequence is
  // exactly what GaussianHead::forward_inference runs, so head and session
  // stay bit-identical under either variant.
  dense_forward(h, w_mu, b_mu, kernels::DenseAct::kNone, mu);
  dense_forward(h, w_sigma, b_sigma, kernels::DenseAct::kNone, sigma);
  softplus_inplace(sigma);
  double* s = sigma.data();
  for (std::size_t i = 0; i < sigma.size(); ++i) s[i] += sigma_floor;
}

}  // namespace ranknet::tensor
