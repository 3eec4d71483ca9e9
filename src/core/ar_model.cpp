#include "core/ar_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/inference.hpp"
#include "tensor/workspace.hpp"
#include "util/string_util.hpp"

namespace ranknet::core {

namespace {
/// Feedback clamp: sampled ranks are fed back as the next lag input;
/// clamping keeps a rare extreme draw from destabilizing the rollout.
constexpr double kMinRankFeedback = 1.0;
constexpr double kMaxRankFeedback = 45.0;

/// One inference session per LSTM layer, all scratch from `ws`.
std::vector<nn::LstmInferenceSession> make_stack_sessions(
    const std::vector<std::unique_ptr<nn::LstmLayer>>& layers,
    std::size_t rows, tensor::Workspace& ws) {
  std::vector<nn::LstmInferenceSession> out;
  out.reserve(layers.size());
  for (const auto& layer : layers) out.emplace_back(*layer, rows, ws);
  return out;
}

/// Advance the whole stack one decode step; layer l > 0 consumes layer
/// l-1's fresh hidden state.
void run_stack_step(std::vector<nn::LstmInferenceSession>& stack) {
  stack[0].step();
  for (std::size_t l = 1; l < stack.size(); ++l) {
    stack[l].set_input(stack[l - 1].h());
    stack[l].step();
  }
}

}  // namespace

std::string SeqModelConfig::cache_key() const {
  return util::format("lstm-c%zu-t%zu-h%zu-l%zu-e%zu-v%d-s%llu", cov_dim,
                      target_dim, hidden, num_layers, embed_dim, vocab,
                      static_cast<unsigned long long>(seed));
}

LstmSeqModel::LstmSeqModel(SeqModelConfig config) : config_(config) {
  util::Rng rng(config_.seed);
  if (config_.embed_dim > 0) {
    embedding_ = std::make_unique<nn::Embedding>(
        static_cast<std::size_t>(config_.vocab), config_.embed_dim, rng,
        "car_embed");
  }
  layers_.clear();
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    const std::size_t in = l == 0 ? config_.input_dim() : config_.hidden;
    layers_.push_back(std::make_unique<nn::LstmLayer>(
        in, config_.hidden, rng, util::format("lstm%zu", l)));
  }
  head_ = std::make_unique<nn::GaussianHead>(config_.hidden,
                                              config_.target_dim, rng, "head");
}

std::vector<nn::Parameter*> LstmSeqModel::params() {
  std::vector<nn::Parameter*> out;
  if (embedding_ != nullptr) {
    for (auto* p : embedding_->params()) out.push_back(p);
  }
  for (auto& layer : layers_) {
    for (auto* p : layer->params()) out.push_back(p);
  }
  for (auto* p : head_->params()) out.push_back(p);
  return out;
}

LstmSeqModel::Batch LstmSeqModel::make_batch(
    const std::vector<const features::SeqExample*>& examples,
    std::size_t dec_len) const {
  return pack_examples(examples, dec_len, scaler_, config_.target_dim,
                       config_.cov_dim);
}

LstmSeqModel::Batch LstmSeqModel::pack_examples(
    const std::vector<const features::SeqExample*>& examples,
    std::size_t dec_len, const features::StandardScaler& scaler,
    std::size_t target_dim, std::size_t cov_dim) {
  if (examples.empty()) throw std::invalid_argument("make_batch: empty");
  const std::size_t batch = examples.size();
  const std::size_t window = examples[0]->target.size();
  if (window < dec_len + 2) {
    throw std::invalid_argument("make_batch: window too short");
  }
  const std::size_t steps = window - 1;
  const std::size_t base_dim = target_dim + cov_dim;

  Batch b;
  b.batch = batch;
  b.dec_len = dec_len;
  b.car_index.resize(batch);
  b.xs_base.assign(steps, tensor::Matrix(batch, base_dim));
  b.z_dec = tensor::Matrix(dec_len * batch, target_dim);
  b.weights.assign(dec_len * batch, 1.0);

  for (std::size_t e = 0; e < batch; ++e) {
    const auto& ex = *examples[e];
    if (ex.target.size() != window) {
      throw std::invalid_argument("make_batch: ragged windows");
    }
    b.car_index[e] = ex.car_index;
    for (std::size_t t = 0; t < steps; ++t) {
      auto row = b.xs_base[t].row(e);
      // Lagged target z_t (dim 0 is the scaled rank). For multivariate
      // targets (Joint), dims 1.. are the raw auxiliary statuses at lap t,
      // taken from the leading covariate slots of the window builder.
      row[0] = scaler.transform(ex.target[t]);
      for (std::size_t j = 1; j < target_dim; ++j) {
        row[j] = ex.covariates[t][j - 1];
      }
      for (std::size_t c = 0; c < cov_dim; ++c) {
        row[target_dim + c] = ex.covariates[t + 1][c];
      }
    }
    for (std::size_t d = 0; d < dec_len; ++d) {
      const std::size_t lap = window - dec_len + d;  // target lap index
      const std::size_t out_row = d * batch + e;
      b.z_dec(out_row, 0) = scaler.transform(ex.target[lap]);
      for (std::size_t j = 1; j < target_dim; ++j) {
        b.z_dec(out_row, j) = ex.covariates[lap][j - 1];
      }
      b.weights[out_row] = ex.weight;
    }
  }
  return b;
}

namespace {

tensor::Matrix concat_cols(const tensor::Matrix& a, const tensor::Matrix& b) {
  tensor::Matrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c);
    for (std::size_t c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b(r, c);
  }
  return out;
}

}  // namespace

double LstmSeqModel::train_step(const Batch& batch) {
  const std::size_t steps = batch.xs_base.size();
  tensor::Matrix embed;
  if (embedding_ != nullptr) embed = embedding_->forward(batch.car_index);

  std::vector<tensor::Matrix> xs(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    xs[t] = embedding_ != nullptr ? concat_cols(batch.xs_base[t], embed)
                                  : batch.xs_base[t];
  }

  std::vector<tensor::Matrix> hs = layers_[0]->forward(xs);
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    hs = layers_[l]->forward(hs);
  }

  // Gather decoder-step hidden states: rows grouped by step.
  tensor::Matrix h_dec(batch.dec_len * batch.batch, config_.hidden);
  for (std::size_t d = 0; d < batch.dec_len; ++d) {
    const std::size_t t = steps - batch.dec_len + d;
    for (std::size_t e = 0; e < batch.batch; ++e) {
      for (std::size_t c = 0; c < config_.hidden; ++c) {
        h_dec(d * batch.batch + e, c) = hs[t](e, c);
      }
    }
  }

  auto out = head_->forward(h_dec);
  tensor::Matrix dh_dec;
  const double loss =
      head_->nll_backward(out, batch.z_dec, batch.weights, dh_dec);

  // Scatter head gradients back to their timesteps.
  std::vector<tensor::Matrix> dhs(steps,
                                  tensor::Matrix(batch.batch, config_.hidden));
  for (std::size_t d = 0; d < batch.dec_len; ++d) {
    const std::size_t t = steps - batch.dec_len + d;
    for (std::size_t e = 0; e < batch.batch; ++e) {
      for (std::size_t c = 0; c < config_.hidden; ++c) {
        dhs[t](e, c) = dh_dec(d * batch.batch + e, c);
      }
    }
  }

  for (std::size_t l = layers_.size(); l-- > 0;) {
    dhs = layers_[l]->backward(dhs);
  }

  if (embedding_ != nullptr) {
    const std::size_t base_dim = config_.target_dim + config_.cov_dim;
    tensor::Matrix dembed(batch.batch, config_.embed_dim);
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t e = 0; e < batch.batch; ++e) {
        for (std::size_t c = 0; c < config_.embed_dim; ++c) {
          dembed(e, c) = dhs[t](e, base_dim + c);
        }
      }
      embedding_->backward(dembed);
    }
  }
  return loss;
}

double LstmSeqModel::evaluate(const Batch& batch) {
  const std::size_t steps = batch.xs_base.size();
  tensor::Matrix embed;
  if (embedding_ != nullptr) {
    embed = embedding_->forward_inference(batch.car_index);
  }
  std::vector<nn::LstmState> states(layers_.size());
  tensor::Matrix h_dec(batch.dec_len * batch.batch, config_.hidden);
  for (std::size_t t = 0; t < steps; ++t) {
    tensor::Matrix x = embedding_ != nullptr
                           ? concat_cols(batch.xs_base[t], embed)
                           : batch.xs_base[t];
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      x = layers_[l]->step(x, states[l]);
    }
    if (t + batch.dec_len >= steps) {
      const std::size_t d = t - (steps - batch.dec_len);
      for (std::size_t e = 0; e < batch.batch; ++e) {
        for (std::size_t c = 0; c < config_.hidden; ++c) {
          h_dec(d * batch.batch + e, c) = x(e, c);
        }
      }
    }
  }
  const auto out = head_->forward_inference(h_dec);
  return nn::GaussianHead::nll(out, batch.z_dec, batch.weights);
}

void LstmSeqModel::run_trace(
    std::span<const std::vector<double>> history,
    std::span<const std::vector<std::vector<double>>> covs,
    std::span<const int> car_index,
    const std::function<void(std::span<const nn::LstmInferenceSession>)>&
        store) const {
  const std::size_t rows = history.size();
  if (rows == 0) return;
  const std::size_t laps = history[0].size();
  for (const auto& h : history) {
    if (h.size() != laps) {
      throw std::invalid_argument("trace: ragged history");
    }
  }
  if (laps < 2) return;

  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto stack = make_stack_sessions(layers_, rows, ws);
  tensor::MatrixView embed;
  if (config_.embed_dim > 0) {
    embed = ws.take_zeroed(rows, config_.embed_dim);
    if (embedding_ != nullptr) {
      nn::EmbeddingInferenceSession(*embedding_).gather(car_index, embed);
    }
  }

  const std::size_t td = config_.target_dim;
  for (std::size_t t = 0; t + 1 < laps; ++t) {
    for (std::size_t r = 0; r < rows; ++r) {
      // Multivariate targets carry their aux dims in leading covariates
      // (same convention as make_batch); univariate is just the rank.
      auto row = stack[0].x_row(r);
      row[0] = scaler_.transform(history[r][t]);
      for (std::size_t j = 1; j < td; ++j) {
        // Zero-fill short rows, same as the covariate packing below — a
        // multivariate model over a thin covariate config must not read
        // past the row.
        row[j] = j - 1 < covs[r][t].size() ? covs[r][t][j - 1] : 0.0;
      }
      const auto& cov = covs[r][t + 1];
      for (std::size_t c = 0; c < config_.cov_dim; ++c) {
        row[td + c] = c < cov.size() ? cov[c] : 0.0;
      }
      for (std::size_t c = 0; c < config_.embed_dim; ++c) {
        row[td + config_.cov_dim + c] = embed(r, c);
      }
    }
    run_stack_step(stack);
    store(stack);
  }
}

std::vector<LstmSeqModel::StackState> LstmSeqModel::trace(
    const std::vector<std::vector<double>>& history,
    const std::vector<std::vector<std::vector<double>>>& covs,
    const std::vector<int>& car_index) const {
  std::vector<StackState> out;
  if (!history.empty() && history[0].size() > 1) {
    out.reserve(history[0].size() - 1);
  }
  run_trace(history, covs, car_index,
            [&](std::span<const nn::LstmInferenceSession> stack) {
              StackState& cur = out.emplace_back(stack.size());
              for (std::size_t l = 0; l < stack.size(); ++l) {
                stack[l].store_state(cur[l]);
              }
            });
  return out;
}

std::vector<double> LstmSeqModel::trace_flat(
    const std::vector<double>& history,
    const std::vector<std::vector<double>>& covs, int car_index) const {
  return std::move(
      trace_checkpoints({&history, 1}, {&covs, 1}, {&car_index, 1}, 1)[0]);
}

std::vector<std::vector<double>> LstmSeqModel::trace_checkpoints(
    std::span<const std::vector<double>> history,
    std::span<const std::vector<std::vector<double>>> covs,
    std::span<const int> car_index, std::size_t every) const {
  if (every == 0) throw std::invalid_argument("trace_checkpoints: every == 0");
  const std::size_t step_size = trace_step_size();
  std::vector<std::vector<double>> out(history.size());
  if (!history.empty() && history[0].size() > 1) {
    const std::size_t kept = (history[0].size() - 2) / every + 1;
    for (auto& buffer : out) buffer.reserve(kept * step_size);
  }
  std::size_t t = 0;
  run_trace(history, covs, car_index,
            [&](std::span<const nn::LstmInferenceSession> stack) {
              if (t++ % every != 0) return;
              for (std::size_t r = 0; r < out.size(); ++r) {
                for (const auto& layer : stack) {
                  const auto h = layer.h().row(r), c = layer.c().row(r);
                  out[r].insert(out[r].end(), h.begin(), h.end());
                  out[r].insert(out[r].end(), c.begin(), c.end());
                }
              }
            });
  return out;
}

LstmSeqModel::StackState LstmSeqModel::state_from_trace(
    std::span<const std::span<const double>> steps) const {
  const std::size_t hidden = config_.hidden;
  StackState state(layers_.size());
  for (auto& layer : state) layer = nn::LstmState(steps.size(), hidden);
  for (std::size_t r = 0; r < steps.size(); ++r) {
    if (steps[r].size() != trace_step_size()) {
      throw std::invalid_argument("state_from_trace: not one trace step");
    }
    const double* src = steps[r].data();
    for (auto& layer : state) {
      std::copy(src, src + hidden, layer.h.data() + r * hidden);
      std::copy(src + hidden, src + 2 * hidden, layer.c.data() + r * hidden);
      src += 2 * hidden;
    }
  }
  return state;
}

void LstmSeqModel::trace_from_state(const StackState& state,
                                    std::span<double> out) const {
  const std::size_t hidden = config_.hidden;
  const std::size_t rows = state.empty() ? 0 : state[0].h.rows();
  if (out.size() != rows * trace_step_size()) {
    throw std::invalid_argument("trace_from_state: not one step per row");
  }
  double* dst = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    for (const auto& layer : state) {
      dst = std::copy_n(layer.h.data() + r * hidden, hidden, dst);
      dst = std::copy_n(layer.c.data() + r * hidden, hidden, dst);
    }
  }
}

void LstmSeqModel::advance(StackState& state,
                           const std::vector<std::vector<double>>& z_prev,
                           const std::vector<std::vector<double>>& covs,
                           const std::vector<int>& car_index) const {
  const std::size_t rows = z_prev.size();
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto stack = make_stack_sessions(layers_, rows, ws);
  tensor::MatrixView embed;
  if (config_.embed_dim > 0) {
    embed = ws.take_zeroed(rows, config_.embed_dim);
    if (embedding_ != nullptr) {
      nn::EmbeddingInferenceSession(*embedding_).gather(car_index, embed);
    }
  }
  const std::size_t td = config_.target_dim;
  for (std::size_t l = 0; l < stack.size(); ++l) stack[l].load_state(state[l]);
  for (std::size_t r = 0; r < rows; ++r) {
    auto row = stack[0].x_row(r);
    row[0] = scaler_.transform(z_prev[r][0]);
    for (std::size_t j = 1; j < td; ++j) row[j] = z_prev[r][j];
    const auto& cov = covs[r];
    for (std::size_t c = 0; c < config_.cov_dim; ++c) {
      row[td + c] = c < cov.size() ? cov[c] : 0.0;
    }
    for (std::size_t c = 0; c < config_.embed_dim; ++c) {
      row[td + config_.cov_dim + c] = embed(r, c);
    }
  }
  run_stack_step(stack);
  for (std::size_t l = 0; l < stack.size(); ++l) stack[l].store_state(state[l]);
}

tensor::Matrix LstmSeqModel::sample_forward_impl(
    StackState& state, std::vector<std::vector<double>>& z_prev,
    const std::vector<std::vector<std::vector<double>>>& future_covs,
    const std::vector<int>& car_index, int horizon, util::Rng* rng,
    std::span<util::Rng> row_rngs,
    std::vector<tensor::Matrix>* all_dims) const {
  const std::size_t rows = z_prev.size();
  const std::size_t td = config_.target_dim;

  // The decode loop is the serving hot path: all per-step storage comes
  // from the thread-local workspace, so after the first call on a thread
  // (and absent batch-shape growth) steps perform zero heap allocations.
  // The `rows` MC samples advance lockstep through each timestep as one
  // [rows x hidden] batch, so every LSTM/dense/head call below lands in
  // the dispatched microkernels (tensor::kernels) at full batch width —
  // and because those kernels are row-independent, the sampled bits are
  // invariant to how rows are batched or partitioned across engine tasks.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto stack = make_stack_sessions(layers_, rows, ws);
  tensor::MatrixView embed;
  if (config_.embed_dim > 0) {
    embed = ws.take_zeroed(rows, config_.embed_dim);
    if (embedding_ != nullptr) {
      nn::EmbeddingInferenceSession(*embedding_).gather(car_index, embed);
    }
  }
  nn::GaussianInferenceSession head(*head_);
  tensor::MatrixView mu = ws.take(rows, td);
  tensor::MatrixView sigma = ws.take(rows, td);
  tensor::MatrixView sample = ws.take(rows, td);

  for (std::size_t l = 0; l < stack.size(); ++l) stack[l].load_state(state[l]);

  tensor::Matrix out(rows, static_cast<std::size_t>(horizon));
  if (all_dims != nullptr) all_dims->clear();

  for (int h = 0; h < horizon; ++h) {
    for (std::size_t r = 0; r < rows; ++r) {
      auto row = stack[0].x_row(r);
      row[0] = scaler_.transform(z_prev[r][0]);
      for (std::size_t j = 1; j < td; ++j) row[j] = z_prev[r][j];
      const auto& cov = future_covs[r][static_cast<std::size_t>(h)];
      for (std::size_t c = 0; c < config_.cov_dim; ++c) {
        row[td + c] = c < cov.size() ? cov[c] : 0.0;
      }
      for (std::size_t c = 0; c < config_.embed_dim; ++c) {
        row[td + config_.cov_dim + c] = embed(r, c);
      }
    }
    run_stack_step(stack);
    head.forward(stack.back().h(), mu, sigma);
    if (rng != nullptr) {
      nn::GaussianInferenceSession::sample(mu, sigma, *rng, sample);
    } else {
      nn::GaussianInferenceSession::sample(mu, sigma, row_rngs, sample);
    }
    tensor::Matrix raw;
    if (all_dims != nullptr) raw = tensor::Matrix(rows, td);
    for (std::size_t r = 0; r < rows; ++r) {
      const double rank = std::clamp(scaler_.inverse(sample(r, 0)),
                                     kMinRankFeedback, kMaxRankFeedback);
      out(r, static_cast<std::size_t>(h)) = rank;
      z_prev[r][0] = rank;
      if (all_dims != nullptr) raw(r, 0) = rank;
      for (std::size_t j = 1; j < td; ++j) {
        z_prev[r][j] = sample(r, j);
        if (all_dims != nullptr) raw(r, j) = sample(r, j);
      }
    }
    if (all_dims != nullptr) all_dims->push_back(std::move(raw));
  }
  for (std::size_t l = 0; l < stack.size(); ++l) {
    stack[l].store_state(state[l]);
  }
  return out;
}

tensor::Matrix LstmSeqModel::sample_forward_tree(
    StackState& branch_state, std::span<const std::size_t> branch_of_row,
    std::vector<std::vector<double>> z_prev,
    const std::vector<std::vector<std::vector<double>>>& future_covs,
    const std::vector<int>& car_index, int horizon,
    std::span<util::Rng> row_rngs) const {
  const std::size_t rows = z_prev.size();
  const std::size_t td = config_.target_dim;
  if (branch_of_row.size() != rows || row_rngs.size() != rows) {
    throw std::invalid_argument(
        "sample_forward_tree: one branch id and one rng stream per row");
  }
  if (rows == 0 || horizon < 1 || branch_state.empty()) {
    throw std::invalid_argument("sample_forward_tree: empty decode");
  }
  const std::size_t branches = branch_state[0].h.rows();

  // Branch b's step-1 inputs come from its first member row; the caller
  // guarantees all members carry byte-identical copies.
  std::vector<std::size_t> rep(branches, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t b = branch_of_row[r];
    if (b >= branches) {
      throw std::invalid_argument(
          "sample_forward_tree: branch id out of range");
    }
    if (rep[b] == rows) rep[b] = r;
  }
  for (std::size_t b = 0; b < branches; ++b) {
    if (rep[b] == rows) {
      throw std::invalid_argument(
          "sample_forward_tree: branch with no member rows");
    }
  }

  // One workspace epoch holds BOTH session sets: the branch-width stack
  // runs the shared step, the full-width stack the divergent suffix. Views
  // from the first set stay valid while the second runs (no begin()
  // between), per the workspace lifetime rules.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto bstack = make_stack_sessions(layers_, branches, ws);
  tensor::MatrixView bembed;
  std::vector<int> branch_car(branches);
  for (std::size_t b = 0; b < branches; ++b) branch_car[b] = car_index[rep[b]];
  if (config_.embed_dim > 0) {
    bembed = ws.take_zeroed(branches, config_.embed_dim);
    if (embedding_ != nullptr) {
      nn::EmbeddingInferenceSession(*embedding_).gather(branch_car, bembed);
    }
  }
  nn::GaussianInferenceSession head(*head_);
  tensor::MatrixView bmu = ws.take(branches, td);
  tensor::MatrixView bsigma = ws.take(branches, td);

  // ---- shared prefix: decode step 1 at branch width -------------------
  for (std::size_t l = 0; l < bstack.size(); ++l) {
    bstack[l].load_state(branch_state[l]);
  }
  for (std::size_t b = 0; b < branches; ++b) {
    const std::size_t r = rep[b];
    auto row = bstack[0].x_row(b);
    row[0] = scaler_.transform(z_prev[r][0]);
    for (std::size_t j = 1; j < td; ++j) row[j] = z_prev[r][j];
    const auto& cov = future_covs[r][0];
    for (std::size_t c = 0; c < config_.cov_dim; ++c) {
      row[td + c] = c < cov.size() ? cov[c] : 0.0;
    }
    for (std::size_t c = 0; c < config_.embed_dim; ++c) {
      row[td + config_.cov_dim + c] = bembed(b, c);
    }
  }
  run_stack_step(bstack);
  head.forward(bstack.back().h(), bmu, bsigma);

  // ---- fork: expand branches to member rows ---------------------------
  auto stack = make_stack_sessions(layers_, rows, ws);
  tensor::MatrixView embed;
  if (config_.embed_dim > 0) {
    embed = ws.take_zeroed(rows, config_.embed_dim);
    if (embedding_ != nullptr) {
      nn::EmbeddingInferenceSession(*embedding_).gather(car_index, embed);
    }
  }
  tensor::MatrixView mu = ws.take(rows, td);
  tensor::MatrixView sigma = ws.take(rows, td);
  tensor::MatrixView sample = ws.take(rows, td);
  for (std::size_t l = 0; l < stack.size(); ++l) {
    stack[l].load_state_rows(bstack[l], branch_of_row);
  }

  tensor::Matrix out(rows, static_cast<std::size_t>(horizon));
  // Step-1 sampling: row r draws from its own stream against its branch's
  // (mu, sigma) — the same values independent decode would have computed
  // for that row, so the drawn bits coincide.
  nn::GaussianInferenceSession::sample_rows(bmu, bsigma, branch_of_row,
                                            row_rngs, sample);
  for (std::size_t r = 0; r < rows; ++r) {
    const double rank = std::clamp(scaler_.inverse(sample(r, 0)),
                                   kMinRankFeedback, kMaxRankFeedback);
    out(r, 0) = rank;
    z_prev[r][0] = rank;
    for (std::size_t j = 1; j < td; ++j) z_prev[r][j] = sample(r, j);
  }

  // ---- divergent suffix: steps 2..horizon at full width ---------------
  // Identical, statement for statement, to the sample_forward_impl loop.
  for (int h = 1; h < horizon; ++h) {
    for (std::size_t r = 0; r < rows; ++r) {
      auto row = stack[0].x_row(r);
      row[0] = scaler_.transform(z_prev[r][0]);
      for (std::size_t j = 1; j < td; ++j) row[j] = z_prev[r][j];
      const auto& cov = future_covs[r][static_cast<std::size_t>(h)];
      for (std::size_t c = 0; c < config_.cov_dim; ++c) {
        row[td + c] = c < cov.size() ? cov[c] : 0.0;
      }
      for (std::size_t c = 0; c < config_.embed_dim; ++c) {
        row[td + config_.cov_dim + c] = embed(r, c);
      }
    }
    run_stack_step(stack);
    head.forward(stack.back().h(), mu, sigma);
    nn::GaussianInferenceSession::sample(mu, sigma, row_rngs, sample);
    for (std::size_t r = 0; r < rows; ++r) {
      const double rank = std::clamp(scaler_.inverse(sample(r, 0)),
                                     kMinRankFeedback, kMaxRankFeedback);
      out(r, static_cast<std::size_t>(h)) = rank;
      z_prev[r][0] = rank;
      for (std::size_t j = 1; j < td; ++j) z_prev[r][j] = sample(r, j);
    }
  }
  return out;
}

tensor::Matrix LstmSeqModel::sample_forward(
    StackState& state, std::vector<std::vector<double>> z_prev,
    const std::vector<std::vector<std::vector<double>>>& future_covs,
    const std::vector<int>& car_index, int horizon, util::Rng& rng,
    std::vector<tensor::Matrix>* all_dims) const {
  return sample_forward_impl(state, z_prev, future_covs, car_index, horizon,
                             &rng, {}, all_dims);
}

tensor::Matrix LstmSeqModel::sample_forward(
    StackState& state, std::vector<std::vector<double>> z_prev,
    const std::vector<std::vector<std::vector<double>>>& future_covs,
    const std::vector<int>& car_index, int horizon,
    std::span<util::Rng> row_rngs,
    std::vector<tensor::Matrix>* all_dims) const {
  if (row_rngs.size() != z_prev.size()) {
    throw std::invalid_argument("sample_forward: one rng stream per row");
  }
  return sample_forward_impl(state, z_prev, future_covs, car_index, horizon,
                             nullptr, row_rngs, all_dims);
}

}  // namespace ranknet::core
