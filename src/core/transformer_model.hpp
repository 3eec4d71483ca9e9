// Transformer implementation of the RankNet sequence model (paper
// Section IV-I): the same autoregressive input assembly and Gaussian
// likelihood as the LSTM variant, with a causal pre-LN Transformer encoder
// (GluonTS-style: model dim 32, multi-head attention) in place of the
// stacked LSTM. Forecasting re-runs the causal stack over a sliding context
// window, appending each sampled value (no recurrent state to cache).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ar_model.hpp"
#include "nn/attention.hpp"

namespace ranknet::core {

struct TransformerConfig {
  std::size_t cov_dim = 9;
  std::size_t target_dim = 1;
  std::size_t model_dim = 32;  // paper: transformer dimension 32
  std::size_t heads = 8;       // paper: 8 attention heads
  std::size_t blocks = 2;
  std::size_t ffn_dim = 64;
  std::size_t embed_dim = 4;
  int vocab = 1;
  std::uint64_t seed = 4321;
  /// Context laps used at inference (kept short: attention is O(T^2)).
  std::size_t infer_context = 24;

  std::size_t input_dim() const { return target_dim + cov_dim + embed_dim; }
  std::string cache_key() const;
};

class TransformerSeqModel : public nn::Layer {
 public:
  explicit TransformerSeqModel(TransformerConfig config);

  const TransformerConfig& config() const { return config_; }

  void set_scaler(const features::StandardScaler& s) { scaler_ = s; }
  const features::StandardScaler& scaler() const { return scaler_; }

  using Batch = LstmSeqModel::Batch;

  /// Same packing as the LSTM model (shared convention).
  Batch make_batch(const std::vector<const features::SeqExample*>& examples,
                   std::size_t dec_len) const;

  double train_step(const Batch& batch);
  double evaluate(const Batch& batch);

  /// Ancestral sampling over a sliding context window, inputs read in place
  /// as in LstmSeqModel::SeqInputs. history[r]: the last C raw ranks of row
  /// r (C = infer_context, shorter is fine, equal for every row). covs[r]:
  /// the covariate rows of those C laps and the horizon, `cov_width` doubles
  /// each; rows past its end and inputs past a narrow row's width read
  /// zeros. Throws std::invalid_argument unless there is one covs span and
  /// one car index per row. Returns (rows x horizon) sampled rank values.
  tensor::Matrix sample_forecast(
      std::span<const std::span<const double>> history,
      std::span<const std::span<const double>> covs, std::size_t cov_width,
      std::span<const int> car_index, int horizon, util::Rng& rng) const;

  std::vector<nn::Parameter*> params() override;

 private:
  /// Pack rows (b, t) -> b*steps + t of assembled inputs.
  tensor::Matrix pack_inputs(const Batch& batch,
                             const tensor::Matrix& embed) const;
  /// Causal stack over packed inputs (training caches enabled when
  /// `training` is true).
  tensor::Matrix run_stack(const tensor::Matrix& packed, std::size_t steps,
                           bool training);

  TransformerConfig config_;
  features::StandardScaler scaler_{0.0, 1.0};
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::Dense> input_proj_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  std::unique_ptr<nn::LayerNorm> final_ln_;
  std::unique_ptr<nn::GaussianHead> head_;
};

}  // namespace ranknet::core
