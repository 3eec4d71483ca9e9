// Instrumented compute kernels over tensor::Matrix and tensor views.
//
// These five kernel classes (MatMul, Mul, Add, Sigmoid, Tanh — plus Softmax
// for the Transformer) are exactly the ones the paper's profiling section
// identifies inside the LSTM cell; every call books its flop/byte footprint
// into tensor::OpCounters so the Fig. 10-12 benches can reproduce the
// roofline and breakdown analysis from real counts.
//
// Every kernel has two faces over one implementation: a Matrix overload
// (training graph) and a view overload (inference runtime, caller-owned
// storage from a Workspace). The Matrix overloads forward into the view
// overloads, so both paths execute the same compiled inner loops and their
// floating-point results are bit-identical by construction.
//
// Runtime dispatch: the kernels on the Monte-Carlo decode path (gemm_nn,
// sigmoid/tanh, hadamard(+), add_bias_rows, and the fused LSTM/dense
// epilogues) execute through tensor::kernels::dispatch()
// (simd_kernels.hpp) — scalar reference loops or AVX2+FMA microkernels,
// chosen per process via CPU detection or the RANKNET_KERNEL override.
// Kernel bookings (flops/bytes/calls) are variant-invariant by design.
#pragma once

#include <span>

#include "tensor/matrix.hpp"
#include "tensor/opcount.hpp"
#include "tensor/simd_kernels.hpp"
#include "tensor/view.hpp"

namespace ranknet::tensor {

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// Single-threaded; rows of C are computed independently, so callers
/// parallelize by splitting work across forecasts, not inside a GEMM.
void gemm(double alpha, ConstMatrixView a, bool trans_a, ConstMatrixView b,
          bool trans_b, double beta, MatrixView c);
void gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
          bool trans_b, double beta, Matrix& c);

/// Convenience: returns A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// out += a (element-wise). Shapes must match.
void add_inplace(MatrixView out, ConstMatrixView a);
void add_inplace(Matrix& out, const Matrix& a);
/// out += alpha * a.
void axpy(double alpha, ConstMatrixView a, MatrixView out);
void axpy(double alpha, const Matrix& a, Matrix& out);
/// out *= s (scalar).
void scale_inplace(MatrixView out, double s);
void scale_inplace(Matrix& out, double s);
/// out = a ⊙ b (Hadamard product); out may alias a or b (exact alias only).
/// The view overload requires out pre-shaped to a's shape.
void hadamard(ConstMatrixView a, ConstMatrixView b, MatrixView out);
void hadamard(const Matrix& a, const Matrix& b, Matrix& out);
/// out += a ⊙ b; out may alias a or b (exact alias only).
void hadamard_add(ConstMatrixView a, ConstMatrixView b, MatrixView out);
void hadamard_add(const Matrix& a, const Matrix& b, Matrix& out);

/// Adds a length-cols bias vector to every row.
void add_bias_rows(MatrixView m, std::span<const double> bias);
void add_bias_rows(Matrix& m, std::span<const double> bias);
/// Accumulates column sums of m into bias_grad (length cols).
void sum_rows(const Matrix& m, std::span<double> bias_grad);

/// Element-wise logistic sigmoid, in place.
void sigmoid_inplace(MatrixView m);
void sigmoid_inplace(Matrix& m);
/// Element-wise tanh, in place.
void tanh_inplace(MatrixView m);
void tanh_inplace(Matrix& m);
/// softplus(x) = log(1 + exp(x)), in place; used for the σ head.
void softplus_inplace(MatrixView m);
void softplus_inplace(Matrix& m);

/// Row-wise softmax (in place) — attention weights. In-place by design, so
/// trivially alias-safe.
void softmax_rows(MatrixView m);
void softmax_rows(Matrix& m);

/// Explicit copy booked as data movement (stands in for host<->device
/// transfers in the hybrid-offload model of Fig. 12). The view overload
/// requires matching shapes.
void copy(ConstMatrixView src, MatrixView dst);
void copy(const Matrix& src, Matrix& dst);

/// Squared L2 norm of all elements.
double squared_norm(const Matrix& m);

// ---- fused LSTM cell step (inference runtime) ---------------------------

/// Caller-owned scratch for lstm_cell_step; all views (batch B, hidden H)
/// typically come from a Workspace and are reused across decode steps.
struct LstmStepScratch {
  MatrixView gates;                        // B x 4H
  MatrixView sig;                          // B x 3H
  MatrixView tg;                           // B x H
  MatrixView fgate, igate, ggate, ogate;   // B x H each
  MatrixView tanh_c;                       // B x H
};

/// One fused LSTM cell step over caller-owned storage:
///   gates = x * wx + h_prev * wh + b        (the training cell's GEMM pair)
///   i,f,o = sigmoid; g = tanh
///   c     = f ⊙ c + i ⊙ g                   (c updated in place)
///   h     = o ⊙ tanh(c)                     (h updated in place)
/// x is (B x in), wx (in x 4H), wh (H x 4H), gate order [i f g o]; bias has
/// 4H entries. h holds h_prev on entry and the new state on return; the
/// weights are read in place.
///
/// Bit-identity: the gates are x*wx with beta 0, then h_prev*wh with beta 1
/// — exactly LstmLayer's training-path cell. Both GEMM variants continue
/// each element's sequential-k chain from C when beta is 1, and the
/// activation/Hadamard stages execute the same inner loops as the unfused
/// kernels, so the result is bit-identical to the training cell. Books one
/// kMatMul record (the flops and bytes of both GEMMs) plus the same
/// Add/Sigmoid/Tanh/Mul records as the unfused sequence.
void lstm_cell_step(ConstMatrixView x, ConstMatrixView wx, ConstMatrixView wh,
                    std::span<const double> bias, MatrixView c, MatrixView h,
                    const LstmStepScratch& scratch);

// ---- fused dense / Gaussian-head forward --------------------------------

/// y = act(x * W + b) as one dispatched op. Under the scalar variant this
/// runs the exact staged gemm → add_bias_rows → activation sequence the
/// Dense layer always ran; under avx2 the bias and activation fuse into a
/// single pass over y. Both Dense::apply (training/forward_inference) and
/// DenseInferenceSession::apply route here, which is what keeps layer and
/// session bit-identical per variant.
void dense_forward(ConstMatrixView x, ConstMatrixView w,
                   std::span<const double> bias, kernels::DenseAct act,
                   MatrixView y);

/// Gaussian head: mu = h*Wmu + bmu; sigma = softplus(h*Ws + bs) + floor.
/// Shared by GaussianHead::forward_inference and the inference session; the
/// target_dim == 1 projections hit the dispatched GEMV fast path.
void gaussian_head_forward(ConstMatrixView h, ConstMatrixView w_mu,
                           std::span<const double> b_mu,
                           ConstMatrixView w_sigma,
                           std::span<const double> b_sigma,
                           double sigma_floor, MatrixView mu,
                           MatrixView sigma);

}  // namespace ranknet::tensor
