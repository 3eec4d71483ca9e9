#include "core/transformer_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/inference.hpp"
#include "tensor/kernels.hpp"
#include "tensor/workspace.hpp"
#include "util/string_util.hpp"

namespace ranknet::core {

namespace {
constexpr double kMinRankFeedback = 1.0;
constexpr double kMaxRankFeedback = 45.0;
constexpr std::size_t kMaxPositions = 512;
}  // namespace

std::string TransformerConfig::cache_key() const {
  return util::format("tf-c%zu-t%zu-d%zu-h%zu-b%zu-f%zu-e%zu-v%d-s%llu",
                      cov_dim, target_dim, model_dim, heads, blocks, ffn_dim,
                      embed_dim, vocab, static_cast<unsigned long long>(seed));
}

TransformerSeqModel::TransformerSeqModel(TransformerConfig config)
    : config_(config) {
  util::Rng rng(config_.seed);
  if (config_.embed_dim > 0) {
    embedding_ = std::make_unique<nn::Embedding>(
        static_cast<std::size_t>(config_.vocab), config_.embed_dim, rng,
        "car_embed");
  }
  input_proj_ = std::make_unique<nn::Dense>(config_.input_dim(),
                                            config_.model_dim, rng,
                                            nn::Activation::kNone, "in_proj");
  for (std::size_t b = 0; b < config_.blocks; ++b) {
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        config_.model_dim, config_.heads, config_.ffn_dim, rng,
        util::format("block%zu", b)));
  }
  final_ln_ = std::make_unique<nn::LayerNorm>(config_.model_dim, "final_ln");
  head_ = std::make_unique<nn::GaussianHead>(config_.model_dim,
                                             config_.target_dim, rng, "head");
}

std::vector<nn::Parameter*> TransformerSeqModel::params() {
  std::vector<nn::Parameter*> out;
  if (embedding_ != nullptr) {
    for (auto* p : embedding_->params()) out.push_back(p);
  }
  for (auto* p : input_proj_->params()) out.push_back(p);
  for (auto& b : blocks_) {
    for (auto* p : b->params()) out.push_back(p);
  }
  for (auto* p : final_ln_->params()) out.push_back(p);
  for (auto* p : head_->params()) out.push_back(p);
  return out;
}

TransformerSeqModel::Batch TransformerSeqModel::make_batch(
    const std::vector<const features::SeqExample*>& examples,
    std::size_t dec_len) const {
  return LstmSeqModel::pack_examples(examples, dec_len, scaler_,
                                     config_.target_dim, config_.cov_dim);
}

tensor::Matrix TransformerSeqModel::pack_inputs(
    const Batch& batch, const tensor::Matrix& embed) const {
  const std::size_t steps = batch.xs_base.size();
  const std::size_t base_dim = config_.target_dim + config_.cov_dim;
  tensor::Matrix packed(batch.batch * steps, config_.input_dim());
  for (std::size_t e = 0; e < batch.batch; ++e) {
    for (std::size_t t = 0; t < steps; ++t) {
      const std::size_t row = e * steps + t;
      for (std::size_t c = 0; c < base_dim; ++c) {
        packed(row, c) = batch.xs_base[t](e, c);
      }
      for (std::size_t c = 0; c < config_.embed_dim; ++c) {
        packed(row, base_dim + c) = embed(e, c);
      }
    }
  }
  return packed;
}

tensor::Matrix TransformerSeqModel::run_stack(const tensor::Matrix& packed,
                                              std::size_t steps,
                                              bool training) {
  tensor::Matrix h = training ? input_proj_->forward(packed)
                              : input_proj_->forward_inference(packed);
  // Positional encoding, repeated per sequence.
  static thread_local tensor::Matrix pe;
  if (pe.rows() < std::min(steps, kMaxPositions) ||
      pe.cols() != config_.model_dim) {
    pe = nn::positional_encoding(kMaxPositions, config_.model_dim);
  }
  for (std::size_t row = 0; row < h.rows(); ++row) {
    const std::size_t t = row % steps;
    for (std::size_t c = 0; c < config_.model_dim; ++c) {
      h(row, c) += pe(std::min(t, kMaxPositions - 1), c);
    }
  }
  for (auto& block : blocks_) {
    h = training ? block->forward(h, steps)
                 : block->forward_inference(h, steps);
  }
  return training ? final_ln_->forward(h) : final_ln_->forward_inference(h);
}

double TransformerSeqModel::train_step(const Batch& batch) {
  const std::size_t steps = batch.xs_base.size();
  tensor::Matrix embed(batch.batch, config_.embed_dim);
  if (embedding_ != nullptr) embed = embedding_->forward(batch.car_index);
  const auto packed = pack_inputs(batch, embed);
  const auto h = run_stack(packed, steps, /*training=*/true);

  // Decoder rows: position t in [steps-dec_len, steps) of each sequence,
  // ordered (step-major) to match pack_examples' z_dec layout.
  tensor::Matrix h_dec(batch.dec_len * batch.batch, config_.model_dim);
  for (std::size_t d = 0; d < batch.dec_len; ++d) {
    const std::size_t t = steps - batch.dec_len + d;
    for (std::size_t e = 0; e < batch.batch; ++e) {
      for (std::size_t c = 0; c < config_.model_dim; ++c) {
        h_dec(d * batch.batch + e, c) = h(e * steps + t, c);
      }
    }
  }
  auto out = head_->forward(h_dec);
  tensor::Matrix dh_dec;
  const double loss =
      head_->nll_backward(out, batch.z_dec, batch.weights, dh_dec);

  tensor::Matrix dh(h.rows(), h.cols());
  for (std::size_t d = 0; d < batch.dec_len; ++d) {
    const std::size_t t = steps - batch.dec_len + d;
    for (std::size_t e = 0; e < batch.batch; ++e) {
      for (std::size_t c = 0; c < config_.model_dim; ++c) {
        dh(e * steps + t, c) = dh_dec(d * batch.batch + e, c);
      }
    }
  }

  tensor::Matrix dx = final_ln_->backward(dh);
  for (std::size_t b = blocks_.size(); b-- > 0;) {
    dx = blocks_[b]->backward(dx);
  }
  const auto dpacked = input_proj_->backward(dx);

  if (embedding_ != nullptr) {
    const std::size_t base_dim = config_.target_dim + config_.cov_dim;
    tensor::Matrix dembed(batch.batch, config_.embed_dim);
    for (std::size_t e = 0; e < batch.batch; ++e) {
      for (std::size_t c = 0; c < config_.embed_dim; ++c) {
        double acc = 0.0;
        for (std::size_t t = 0; t < steps; ++t) {
          acc += dpacked(e * steps + t, base_dim + c);
        }
        dembed(e, c) = acc;
      }
    }
    embedding_->backward(dembed);
  }
  return loss;
}

double TransformerSeqModel::evaluate(const Batch& batch) {
  const std::size_t steps = batch.xs_base.size();
  tensor::Matrix embed(batch.batch, config_.embed_dim);
  if (embedding_ != nullptr) {
    embed = embedding_->forward_inference(batch.car_index);
  }
  const auto packed = pack_inputs(batch, embed);
  const auto h = run_stack(packed, steps, /*training=*/false);
  tensor::Matrix h_dec(batch.dec_len * batch.batch, config_.model_dim);
  for (std::size_t d = 0; d < batch.dec_len; ++d) {
    const std::size_t t = steps - batch.dec_len + d;
    for (std::size_t e = 0; e < batch.batch; ++e) {
      for (std::size_t c = 0; c < config_.model_dim; ++c) {
        h_dec(d * batch.batch + e, c) = h(e * steps + t, c);
      }
    }
  }
  const auto out = head_->forward_inference(h_dec);
  return nn::GaussianHead::nll(out, batch.z_dec, batch.weights);
}

tensor::Matrix TransformerSeqModel::sample_forecast(
    std::span<const std::span<const double>> history,
    std::span<const std::span<const double>> covs, std::size_t cov_width,
    std::span<const int> car_index, int horizon, util::Rng& rng) const {
  const std::size_t rows = history.size();
  const std::size_t ctx = rows == 0 ? 0 : history[0].size();
  if (covs.size() != rows || car_index.size() != rows ||
      std::any_of(history.begin(), history.end(),
                  [&](const auto& h) { return h.size() != ctx; })) {
    throw std::invalid_argument(
        "sample_forecast: not C ranks, one covs span and one car per row");
  }
  if (rows == 0) return {};
  const auto h_count = static_cast<std::size_t>(horizon);

  tensor::Matrix embed(rows, config_.embed_dim);
  if (embedding_ != nullptr) {
    embed = embedding_->forward_inference(car_index);
  }

  // Row r's raw ranks: position t < ctx is history[r][t], later positions
  // the ranks sampled so far, out(r, t - ctx).
  tensor::Matrix out(rows, h_count);

  // Positional encoding cache (deterministic values, same as run_stack's).
  static thread_local tensor::Matrix pe;
  if (pe.rows() < kMaxPositions || pe.cols() != config_.model_dim) {
    pe = nn::positional_encoding(kMaxPositions, config_.model_dim);
  }

  // Each horizon step re-runs the causal stack over a one-lap-longer
  // context, so session shapes change per step: one workspace epoch per
  // step keeps the arena reused while the views are re-derived.
  auto& ws = tensor::Workspace::thread_local_instance();
  nn::DenseInferenceSession in_proj(*input_proj_);
  nn::GaussianInferenceSession head(*head_);
  for (std::size_t h = 1; h <= h_count; ++h) {
    // Inputs for positions t = 1 .. ctx-1+h: step t consumes
    // [z_{t-1}, cov_t]; the final position's hidden predicts the new lap.
    const std::size_t steps = ctx - 1 + h;
    const std::size_t n = rows * steps;
    ws.begin();
    tensor::MatrixView packed = ws.take(n, config_.input_dim());
    const std::size_t base_dim = config_.target_dim + config_.cov_dim;
    const std::size_t width = std::min(config_.cov_dim, cov_width);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < steps; ++t) {
        const std::size_t row = r * steps + t;
        double* x = packed.row(row).data();
        x[0] = scaler_.transform(t < ctx ? history[r][t] : out(r, t - ctx));
        // Position t reads the covariate row of lap t + 1 of the window.
        double* cov = x + config_.target_dim;
        if ((t + 2) * cov_width <= covs[r].size()) {
          cov = std::copy_n(covs[r].data() + (t + 1) * cov_width, width, cov);
        }
        std::fill(cov, x + base_dim, 0.0);
        for (std::size_t c = 0; c < config_.embed_dim; ++c) {
          x[base_dim + c] = embed(r, c);
        }
      }
    }

    tensor::MatrixView ha = ws.take(n, config_.model_dim);
    tensor::MatrixView hb = ws.take(n, config_.model_dim);
    in_proj.apply(packed, ha);
    for (std::size_t row = 0; row < n; ++row) {
      const std::size_t t = row % steps;
      for (std::size_t c = 0; c < config_.model_dim; ++c) {
        ha(row, c) += pe(std::min(t, kMaxPositions - 1), c);
      }
    }
    tensor::MatrixView cur = ha, nxt = hb;
    for (const auto& block : blocks_) {
      nn::TransformerBlockSession session(*block, n, steps, ws);
      session.forward(cur, nxt);
      std::swap(cur, nxt);
    }
    final_ln_->apply_view(cur, cur);

    tensor::MatrixView h_last = ws.take(rows, config_.model_dim);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < config_.model_dim; ++c) {
        h_last(r, c) = cur(r * steps + steps - 1, c);
      }
    }
    tensor::MatrixView mu = ws.take(rows, config_.target_dim);
    tensor::MatrixView sigma = ws.take(rows, config_.target_dim);
    tensor::MatrixView sample = ws.take(rows, config_.target_dim);
    head.forward(h_last, mu, sigma);
    nn::GaussianInferenceSession::sample(mu, sigma, rng, sample);
    for (std::size_t r = 0; r < rows; ++r) {
      const double rank = std::clamp(scaler_.inverse(sample(r, 0)),
                                     kMinRankFeedback, kMaxRankFeedback);
      out(r, h - 1) = rank;
    }
  }
  return out;
}

}  // namespace ranknet::core
