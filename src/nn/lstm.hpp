// LSTM layer with truncated-BPTT-free full-sequence backprop.
//
// The paper's RankModel is a stacked 2-layer LSTM encoder-decoder with
// shared parameters between encoder and decoder (GluonTS DeepAR style); the
// stack here is simply two LstmLayer objects applied in sequence over the
// whole unrolled window.
#pragma once

#include <vector>

#include "nn/param.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace ranknet::nn {

/// Recurrent state of one layer for one batch.
struct LstmState {
  tensor::Matrix h;  // (batch x hidden)
  tensor::Matrix c;  // (batch x hidden)

  LstmState() = default;
  LstmState(std::size_t batch, std::size_t hidden)
      : h(batch, hidden), c(batch, hidden) {}
};

class LstmLayer : public Layer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, util::Rng& rng,
            std::string name = "lstm");

  /// Training forward over the full sequence (time-major: xs[t] is
  /// batch x input). Starts from a zero state and caches everything needed
  /// for backward. Returns h_t for every step.
  std::vector<tensor::Matrix> forward(const std::vector<tensor::Matrix>& xs);

  /// Backward: dhs[t] = dLoss/dh_t (zero matrices where no loss applies).
  /// Accumulates parameter gradients and returns dLoss/dx_t.
  std::vector<tensor::Matrix> backward(
      const std::vector<tensor::Matrix>& dhs);

  /// Single inference step: consumes x, updates state in place, returns h.
  /// Used by the ancestral-sampling forecaster (paper Algorithm 2).
  tensor::Matrix step(const tensor::Matrix& x, LstmState& state) const;

  std::vector<Parameter*> params() override { return {&wx_, &wh_, &b_}; }

  std::size_t input_dim() const { return wx_.value.rows(); }
  std::size_t hidden_dim() const { return wh_.value.rows(); }

  /// Read access for the inference runtime (LstmInferenceSession reads
  /// the weights in place).
  const tensor::Matrix& wx() const { return wx_.value; }
  const tensor::Matrix& wh() const { return wh_.value; }
  const tensor::Matrix& bias() const { return b_.value; }

 private:
  // Computes gates for one step; writes post-activation gates (batch x 4h)
  // and the new (h, c, tanh_c).
  void cell(const tensor::Matrix& x, const tensor::Matrix& h_prev,
            const tensor::Matrix& c_prev, tensor::Matrix& gates,
            tensor::Matrix& h, tensor::Matrix& c,
            tensor::Matrix& tanh_c) const;

  Parameter wx_;  // (input x 4*hidden), gate order [i f g o]
  Parameter wh_;  // (hidden x 4*hidden)
  Parameter b_;   // (1 x 4*hidden)

  // Training caches (time-major).
  std::vector<tensor::Matrix> xs_, hs_, cs_, gates_, tanh_cs_;
};

}  // namespace ranknet::nn
