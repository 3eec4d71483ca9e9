// Inference runtime: zero-allocation sessions over the training layers.
//
// A session is the serving face of a training layer. It borrows the layer's
// weights — every session reads them in place, so building one copies no
// weights — and runs every kernel over caller-owned views, so after the
// arena warms up a decode step performs zero heap allocations. The training graph (forward/backward,
// Adam, activation tapes) is untouched — sessions are rebuilt per forecast
// call, so weight updates between calls are always visible.
//
// Bit-identity contract: every session routes through the same compiled
// kernel loops as the training-path forward_inference (tensor/kernels.hpp
// view overloads), so session output is bit-identical to the corresponding
// layer call. test_inference_session asserts this for batches {1, 7, 64}.
//
// Storage rules (see tensor/workspace.hpp): a session's views live until
// the next Workspace::begin(); sessions never call begin() themselves —
// the top-level entry point (e.g. LstmSeqModel::sample_forward) owns the
// epoch.
#pragma once

#include <span>

#include "nn/attention.hpp"
#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/gaussian.hpp"
#include "nn/lstm.hpp"
#include "tensor/kernels.hpp"
#include "tensor/view.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"

namespace ranknet::nn {

/// Stateless wrapper over a Dense layer: y = activation(x * W + b) into
/// caller storage. Weights are borrowed, never copied.
class DenseInferenceSession {
 public:
  DenseInferenceSession() = default;
  explicit DenseInferenceSession(const Dense& layer) : layer_(&layer) {}

  /// y must be (x.rows() x output_dim); y may not alias x.
  void apply(tensor::ConstMatrixView x, tensor::MatrixView y) const;

  std::size_t input_dim() const { return layer_->input_dim(); }
  std::size_t output_dim() const { return layer_->output_dim(); }
  const Dense& layer() const { return *layer_; }

 private:
  const Dense* layer_ = nullptr;
};

/// Gather embedding rows into caller storage.
class EmbeddingInferenceSession {
 public:
  EmbeddingInferenceSession() = default;
  explicit EmbeddingInferenceSession(const Embedding& layer)
      : layer_(&layer) {}

  /// out must be (indices.size() x dim). Throws std::out_of_range on a bad
  /// index, like Embedding::forward_inference.
  void gather(std::span<const int> indices, tensor::MatrixView out) const;

  std::size_t dim() const { return layer_->dim(); }

 private:
  const Embedding* layer_ = nullptr;
};

/// Gaussian head over caller storage: mu = h*Wmu + bmu, sigma =
/// softplus(h*Ws + bs) + kSigmaFloor, plus row-stream sampling.
class GaussianInferenceSession {
 public:
  GaussianInferenceSession() = default;
  explicit GaussianInferenceSession(const GaussianHead& head)
      : mu_(head.mu_dense()), sigma_(head.sigma_dense()) {}

  /// mu and sigma must be (h.rows() x target_dim).
  void forward(tensor::ConstMatrixView h, tensor::MatrixView mu,
               tensor::MatrixView sigma) const;

  /// Draw one sample per row into out; same draw order as
  /// GaussianHead::sample, so results are bit-identical.
  static void sample(tensor::ConstMatrixView mu, tensor::ConstMatrixView sigma,
                     util::Rng& rng, tensor::MatrixView out);
  /// Row r draws only from row_rngs[r] (partition invariance).
  static void sample(tensor::ConstMatrixView mu, tensor::ConstMatrixView sigma,
                     std::span<util::Rng> row_rngs, tensor::MatrixView out);
  /// Decode-tree expansion draw: out row r draws from row_rngs[r] over the
  /// branch-width parameters mu/sigma at row branch_of_row[r]. Because the
  /// draw still reads only (mu, sigma, row_rngs[r]), a row whose branch row
  /// holds the same bits as its independent-decode mu/sigma row produces
  /// bit-identical output to the plain row-stream sample() above.
  static void sample_rows(tensor::ConstMatrixView mu,
                          tensor::ConstMatrixView sigma,
                          std::span<const std::size_t> branch_of_row,
                          std::span<util::Rng> row_rngs,
                          tensor::MatrixView out);

  std::size_t target_dim() const { return mu_.output_dim(); }

 private:
  DenseInferenceSession mu_, sigma_;
};

/// Stateful LSTM decode session for a fixed batch size. It borrows the
/// layer's wx, wh and bias and takes its input, state and per-step scratch
/// from `ws` at construction, so building one copies no weights and step()
/// allocates nothing.
class LstmInferenceSession {
 public:
  LstmInferenceSession(const LstmLayer& layer, std::size_t batch,
                       tensor::Workspace& ws);

  std::size_t batch() const { return batch_; }
  std::size_t input_dim() const { return in_; }
  std::size_t hidden_dim() const { return hidden_; }

  /// Zero h and c (matches LstmLayer::step starting from a fresh state).
  void reset_state();
  /// Copy a training-path state in (state must be (batch x hidden)).
  void load_state(const LstmState& state);
  /// Decode-tree expansion: row r of this session's (h, c) becomes a
  /// byte-for-byte copy of row src_row_per_dst[r] of `src`'s state. Plain
  /// row copies — no arithmetic — so expansion cannot perturb a single bit.
  void load_state_rows(const LstmInferenceSession& src,
                       std::span<const std::size_t> src_row_per_dst);
  /// Copy the session state out into a training-path LstmState.
  void store_state(LstmState& state) const;

  /// The caller writes input row r (length input_dim) before each step().
  std::span<double> x_row(std::size_t r) {
    return {x_.data() + r * in_, in_};
  }
  /// Copy a full (batch x input_dim) matrix into the input rows.
  void set_input(tensor::ConstMatrixView x);

  /// One decode step: the training cell's x*wx, then h*wh, then the gate
  /// epilogue, with h and c updated in place. Bit-identical to
  /// LstmLayer::step on the same state and input.
  void step();

  tensor::MatrixView h() const { return h_; }
  tensor::MatrixView c() const { return c_; }

 private:
  const LstmLayer* layer_;
  std::size_t batch_, in_, hidden_;
  std::span<const double> bias_;   // borrowed from the layer
  tensor::MatrixView x_;           // batch x in
  tensor::MatrixView h_, c_;       // batch x hidden
  tensor::LstmStepScratch scratch_;
};

/// Causal multi-head self-attention over caller storage for a fixed
/// (rows = batch*seq_len, seq_len) shape. Weights borrowed; per-head
/// scratch taken from `ws` once at construction.
class AttentionInferenceSession {
 public:
  AttentionInferenceSession(const MultiHeadSelfAttention& layer,
                            std::size_t rows, std::size_t seq_len,
                            tensor::Workspace& ws);

  /// y must be (rows x dim); y may not alias x. Bit-identical to
  /// MultiHeadSelfAttention::forward_inference.
  void forward(tensor::ConstMatrixView x, tensor::MatrixView y) const;

 private:
  const MultiHeadSelfAttention* layer_;
  std::size_t seq_len_;
  tensor::MatrixView q_, k_, v_, concat_;   // rows x dim
  tensor::MatrixView qh_, kh_, vh_, outh_;  // seq_len x head_dim
  tensor::MatrixView scores_;               // seq_len x seq_len
};

/// Pre-LN Transformer block over caller storage (x + MHA(LN(x)), then
/// x + FFN(LN(x))). Bit-identical to TransformerBlock::forward_inference.
class TransformerBlockSession {
 public:
  TransformerBlockSession(const TransformerBlock& block, std::size_t rows,
                          std::size_t seq_len, tensor::Workspace& ws);

  /// out must be (rows x dim); out may not alias x.
  void forward(tensor::ConstMatrixView x, tensor::MatrixView out) const;

 private:
  const TransformerBlock* block_;
  AttentionInferenceSession attn_;
  DenseInferenceSession ffn1_, ffn2_;
  tensor::MatrixView ln_out_;  // rows x dim (ln1 then ln2 output)
  tensor::MatrixView attn_y_;  // rows x dim
  tensor::MatrixView hmid_;    // rows x dim (x + attn residual)
  tensor::MatrixView ffn_h_;   // rows x ffn_dim
  tensor::MatrixView ffn_y_;   // rows x dim
};

}  // namespace ranknet::nn
