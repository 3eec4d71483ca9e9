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

}  // namespace

void write_target(double rank, std::span<const double> cov_row,
                  std::span<double> z) {
  z[0] = rank;
  for (std::size_t j = 1; j < z.size(); ++j) {
    z[j] = j - 1 < cov_row.size() ? cov_row[j - 1] : 0.0;
  }
}

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
    const std::size_t width = ex.covariates.size() / window;
    if (ex.covariates.size() != window * width || width < cov_dim) {
      throw std::invalid_argument(
          "make_batch: covariates are not one row of cov_dim or more per lap");
    }
    const auto cov_row = [&](std::size_t t) {
      return std::span<const double>(ex.covariates).subspan(t * width, width);
    };
    b.car_index[e] = ex.car_index;
    for (std::size_t t = 0; t < steps; ++t) {
      // Lagged target z_t (dim 0 is the scaled rank), then lap t + 1's
      // covariates.
      const auto row = b.xs_base[t].row(e);
      write_target(scaler.transform(ex.target[t]), cov_row(t),
                   row.first(target_dim));
      std::copy_n(cov_row(t + 1).data(), cov_dim, row.data() + target_dim);
    }
    for (std::size_t d = 0; d < dec_len; ++d) {
      const std::size_t lap = window - dec_len + d;  // target lap index
      const std::size_t out_row = d * batch + e;
      write_target(scaler.transform(ex.target[lap]), cov_row(lap),
                   b.z_dec.row(out_row));
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

struct LstmSeqModel::Stack {
  std::vector<nn::LstmInferenceSession> layers;
  tensor::MatrixView embed;  // rows x embed_dim
};

LstmSeqModel::Stack LstmSeqModel::make_stack(std::span<const int> car_index,
                                             tensor::Workspace& ws) const {
  Stack stack;
  stack.layers.reserve(layers_.size());
  for (const auto& layer : layers_) {
    stack.layers.emplace_back(*layer, car_index.size(), ws);
  }
  if (config_.embed_dim > 0) {
    stack.embed = ws.take_zeroed(car_index.size(), config_.embed_dim);
    if (embedding_ != nullptr) {
      nn::EmbeddingInferenceSession(*embedding_).gather(car_index,
                                                        stack.embed);
    }
  }
  return stack;
}

void LstmSeqModel::step(Stack& stack, const double* z, const SeqInputs& in,
                        std::size_t k) const {
  const std::size_t td = config_.target_dim;
  const std::size_t cd = config_.cov_dim;
  const std::size_t width = std::min(cd, in.cov_width);
  auto& first = stack.layers[0];
  for (std::size_t r = 0; r < first.batch(); ++r) {
    double* x = first.x_row(r).data();
    const double* zr = z + r * td;
    x[0] = scaler_.transform(zr[0]);
    std::copy(zr + 1, zr + td, x + 1);
    double* cov = x + td;
    if ((k + 1) * in.cov_width <= in.covs[r].size()) {
      cov = std::copy_n(in.covs[r].data() + k * in.cov_width, width, cov);
    }
    std::fill(cov, x + td + cd, 0.0);
    if (config_.embed_dim > 0) {
      const auto embed = stack.embed.row(r);
      std::copy(embed.begin(), embed.end(), x + td + cd);
    }
  }
  // Layer l > 0 consumes layer l-1's fresh hidden state.
  first.step();
  for (std::size_t l = 1; l < stack.layers.size(); ++l) {
    stack.layers[l].set_input(stack.layers[l - 1].h());
    stack.layers[l].step();
  }
}

void LstmSeqModel::feed_back(tensor::ConstMatrixView sample, std::size_t h,
                             tensor::MatrixView z, tensor::Matrix& out) const {
  for (std::size_t r = 0; r < sample.rows(); ++r) {
    const double rank = std::clamp(scaler_.inverse(sample(r, 0)),
                                   kMinRankFeedback, kMaxRankFeedback);
    out(r, h) = rank;
    z(r, 0) = rank;
    for (std::size_t j = 1; j < config_.target_dim; ++j) {
      z(r, j) = sample(r, j);
    }
  }
}

void LstmSeqModel::decode_steps(Stack& stack, const SeqInputs& in,
                                tensor::MatrixView z, int first, int horizon,
                                util::Rng* rng, std::span<util::Rng> row_rngs,
                                tensor::Matrix& out,
                                tensor::Workspace& ws) const {
  const std::size_t rows = z.rows();
  const std::size_t td = config_.target_dim;
  nn::GaussianInferenceSession head(*head_);
  tensor::MatrixView mu = ws.take(rows, td);
  tensor::MatrixView sigma = ws.take(rows, td);
  tensor::MatrixView sample = ws.take(rows, td);
  for (int h = first; h < horizon; ++h) {
    const auto k = static_cast<std::size_t>(h);
    step(stack, z.data(), in, k);
    head.forward(stack.layers.back().h(), mu, sigma);
    if (rng != nullptr) {
      nn::GaussianInferenceSession::sample(mu, sigma, *rng, sample);
    } else {
      nn::GaussianInferenceSession::sample(mu, sigma, row_rngs, sample);
    }
    feed_back(sample, k, z, out);
  }
}

std::vector<std::vector<double>> LstmSeqModel::trace_checkpoints(
    std::span<const std::span<const double>> history,
    std::span<const std::span<const double>> covs, std::size_t cov_width,
    std::span<const int> car_index, std::size_t every) const {
  if (every == 0) throw std::invalid_argument("trace_checkpoints: every == 0");
  const std::size_t rows = history.size();
  const std::size_t laps = rows == 0 ? 0 : history[0].size();
  bool shaped = covs.size() == rows && car_index.size() == rows;
  for (std::size_t r = 0; shaped && r < rows; ++r) {
    shaped = history[r].size() == laps && covs[r].size() == laps * cov_width;
  }
  if (!shaped) {
    throw std::invalid_argument(
        "trace_checkpoints: not T targets, one T x cov_width covariate block "
        "and one car index per row");
  }
  std::vector<std::vector<double>> out(rows);
  if (laps < 2) return out;
  const std::size_t kept = (laps - 2) / every + 1;
  for (auto& buffer : out) buffer.reserve(kept * trace_step_size());

  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto stack = make_stack(car_index, ws);
  const std::size_t td = config_.target_dim;
  tensor::MatrixView z = ws.take(rows, td);
  const SeqInputs in{covs, cov_width, {}, car_index};
  for (std::size_t t = 0; t + 1 < laps; ++t) {
    for (std::size_t r = 0; r < rows; ++r) {
      write_target(history[r][t], covs[r].subspan(t * cov_width, cov_width),
                   z.row(r));
    }
    step(stack, z.data(), in, t + 1);  // reads lap t + 1's row
    if (t % every != 0) continue;
    for (std::size_t r = 0; r < rows; ++r) {
      for (const auto& layer : stack.layers) {
        const auto h = layer.h().row(r), c = layer.c().row(r);
        out[r].insert(out[r].end(), h.begin(), h.end());
        out[r].insert(out[r].end(), c.begin(), c.end());
      }
    }
  }
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

namespace {

/// Throws unless `in` holds one covariate span per row and `z_blocks`
/// blocks of rows x target_dim values.
void check_inputs(const LstmSeqModel::SeqInputs& in, std::size_t target_dim,
                  std::size_t z_blocks, const char* what) {
  const std::size_t rows = in.car_index.size();
  if (in.covs.size() != rows || in.z.size() != z_blocks * rows * target_dim) {
    throw std::invalid_argument(std::string(what) +
                                ": inputs do not match the row count");
  }
}

}  // namespace

void LstmSeqModel::advance(StackState& state, const SeqInputs& in,
                           std::size_t steps) const {
  const std::size_t td = config_.target_dim;
  check_inputs(in, td, steps, "advance");
  if (steps == 0) return;
  const std::size_t rows = in.car_index.size();
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto stack = make_stack(in.car_index, ws);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    stack.layers[l].load_state(state[l]);
  }
  for (std::size_t t = 0; t < steps; ++t) {
    step(stack, in.z.data() + t * rows * td, in, t);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    stack.layers[l].store_state(state[l]);
  }
}

tensor::Matrix LstmSeqModel::sample_forward_impl(
    StackState& state, const SeqInputs& in, int horizon, util::Rng* rng,
    std::span<util::Rng> row_rngs) const {
  check_inputs(in, config_.target_dim, 1, "sample_forward");
  // The decode loop is the serving hot path: all per-step storage comes
  // from the thread-local workspace, so after the first call on a thread
  // (and absent batch-shape growth) steps perform zero heap allocations.
  // The rows advance lockstep through each timestep as one
  // [rows x hidden] batch, so every LSTM/dense/head call below lands in
  // the dispatched microkernels (tensor::kernels) at full batch width —
  // and because those kernels are row-independent, the sampled bits are
  // invariant to how rows are batched or partitioned across engine tasks.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto stack = make_stack(in.car_index, ws);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    stack.layers[l].load_state(state[l]);
  }
  tensor::MatrixView z = ws.take(in.car_index.size(), config_.target_dim);
  std::copy(in.z.begin(), in.z.end(), z.data());
  tensor::Matrix out(z.rows(), static_cast<std::size_t>(horizon));
  decode_steps(stack, in, z, 0, horizon, rng, row_rngs, out, ws);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    stack.layers[l].store_state(state[l]);
  }
  return out;
}

tensor::Matrix LstmSeqModel::sample_forward_tree(
    StackState& branch_state, std::span<const std::size_t> branch_of_row,
    const SeqInputs& in, int horizon, std::span<util::Rng> row_rngs) const {
  const std::size_t rows = in.car_index.size();
  const std::size_t td = config_.target_dim;
  check_inputs(in, td, 1, "sample_forward_tree");
  if (branch_of_row.size() != rows || row_rngs.size() != rows) {
    throw std::invalid_argument(
        "sample_forward_tree: one branch id and one rng stream per row");
  }
  if (rows == 0 || horizon < 1 || branch_state.empty()) {
    throw std::invalid_argument("sample_forward_tree: empty decode");
  }
  const std::size_t branches = branch_state[0].h.rows();

  // Branch b's step-1 inputs are those of its first member row; the caller
  // guarantees all members carry byte-identical ones.
  std::vector<std::size_t> rep(branches, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t b = branch_of_row[r];
    if (b >= branches) {
      throw std::invalid_argument(
          "sample_forward_tree: branch id out of range");
    }
    if (rep[b] == rows) rep[b] = r;
  }
  std::vector<std::span<const double>> branch_covs(branches);
  std::vector<int> branch_car(branches);
  for (std::size_t b = 0; b < branches; ++b) {
    if (rep[b] == rows) {
      throw std::invalid_argument(
          "sample_forward_tree: branch with no member rows");
    }
    branch_covs[b] = in.covs[rep[b]];
    branch_car[b] = in.car_index[rep[b]];
  }
  const SeqInputs branch_in{branch_covs, in.cov_width, {}, branch_car};

  // One workspace epoch holds BOTH session sets: the branch-width stack
  // runs the shared step, the full-width stack the divergent suffix. Views
  // from the first set stay valid while the second runs (no begin()
  // between), per the workspace lifetime rules.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  auto bstack = make_stack(branch_car, ws);
  tensor::MatrixView bz = ws.take(branches, td);
  for (std::size_t b = 0; b < branches; ++b) {
    std::copy_n(in.z.data() + rep[b] * td, td, bz.row(b).data());
  }

  // ---- shared prefix: decode step 1 at branch width -------------------
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    bstack.layers[l].load_state(branch_state[l]);
  }
  step(bstack, bz.data(), branch_in, 0);
  nn::GaussianInferenceSession head(*head_);
  tensor::MatrixView bmu = ws.take(branches, td);
  tensor::MatrixView bsigma = ws.take(branches, td);
  head.forward(bstack.layers.back().h(), bmu, bsigma);

  // ---- fork: expand branches to member rows ---------------------------
  auto stack = make_stack(in.car_index, ws);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    stack.layers[l].load_state_rows(bstack.layers[l], branch_of_row);
  }
  tensor::MatrixView z = ws.take(rows, td);
  tensor::MatrixView sample = ws.take(rows, td);
  tensor::Matrix out(rows, static_cast<std::size_t>(horizon));
  // Step-1 sampling: row r draws from its own stream against its branch's
  // (mu, sigma) — the same values independent decode would have computed
  // for that row, so the drawn bits coincide.
  nn::GaussianInferenceSession::sample_rows(bmu, bsigma, branch_of_row,
                                            row_rngs, sample);
  feed_back(sample, 0, z, out);

  // ---- divergent suffix: steps 2..horizon at full width ---------------
  decode_steps(stack, in, z, 1, horizon, nullptr, row_rngs, out, ws);
  return out;
}

tensor::Matrix LstmSeqModel::sample_forward(StackState& state,
                                            const SeqInputs& in, int horizon,
                                            util::Rng& rng) const {
  return sample_forward_impl(state, in, horizon, &rng, {});
}

tensor::Matrix LstmSeqModel::sample_forward(
    StackState& state, const SeqInputs& in, int horizon,
    std::span<util::Rng> row_rngs) const {
  if (row_rngs.size() != in.car_index.size()) {
    throw std::invalid_argument("sample_forward: one rng stream per row");
  }
  return sample_forward_impl(state, in, horizon, nullptr, row_rngs);
}

}  // namespace ranknet::core
