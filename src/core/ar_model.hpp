// The autoregressive stacked-LSTM sequence model with Gaussian likelihood —
// the shared network behind DeepAR, RankNet-MLP/-Oracle (covariates on) and
// RankNet-Joint (multivariate target, covariates off). Implements paper
// Algorithm 1 (teacher-forced likelihood training over the unrolled
// encoder+decoder window) and the network half of Algorithm 2 (stateful
// ancestral sampling).
//
// Step convention: input at step t is [z_{t-1}, x_t, embed(car)] and the
// hidden state h_t parameterizes p(z_t | θ(h_t)), matching Fig. 5(c).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "features/scaler.hpp"
#include "features/window.hpp"
#include "nn/adam.hpp"
#include "nn/embedding.hpp"
#include "nn/gaussian.hpp"
#include "nn/lstm.hpp"
#include "tensor/view.hpp"
#include "util/rng.hpp"

namespace ranknet::tensor {
class Workspace;
}  // namespace ranknet::tensor

namespace ranknet::core {

struct SeqModelConfig {
  std::size_t cov_dim = 9;    // 0 = no covariates (DeepAR / Joint)
  std::size_t target_dim = 1; // 3 for RankNet-Joint
  std::size_t hidden = 40;    // paper Table IV: 40 LSTM nodes
  std::size_t num_layers = 2; // paper Table IV: 2 LSTM layers
  std::size_t embed_dim = 4;  // CarId embedding; 0 disables
  int vocab = 1;              // embedding rows (CarVocab::size())
  std::uint64_t seed = 1234;

  std::size_t input_dim() const {
    return target_dim + cov_dim + embed_dim;
  }
  /// Stable string for the model-cache key.
  std::string cache_key() const;
};

class LstmSeqModel : public nn::Layer {
 public:
  explicit LstmSeqModel(SeqModelConfig config);

  const SeqModelConfig& config() const { return config_; }

  /// Target scaler (applied to target dim 0 = rank only); fitted by the
  /// trainer on training ranks.
  void set_scaler(const features::StandardScaler& scaler) { scaler_ = scaler; }
  const features::StandardScaler& scaler() const { return scaler_; }

  // ---- training (Algorithm 1) ----------------------------------------

  /// A packed minibatch of equal-length windows. xs_base excludes the car
  /// embedding columns (those are looked up inside train_step so the
  /// embedding table receives gradients).
  struct Batch {
    std::vector<tensor::Matrix> xs_base;  // time-major, (B x target+cov dim)
    tensor::Matrix z_dec;                 // (dec_len*B x target_dim), scaled
    std::vector<double> weights;          // per z_dec row
    std::vector<int> car_index;           // per example
    std::size_t batch = 0;
    std::size_t dec_len = 0;
  };

  /// Assemble a batch from windows (targets get scaled internally).
  /// All examples must have covariates/target of equal length.
  Batch make_batch(const std::vector<const features::SeqExample*>& examples,
                   std::size_t dec_len) const;

  /// Shared batch packer (also used by the Transformer model).
  static Batch pack_examples(
      const std::vector<const features::SeqExample*>& examples,
      std::size_t dec_len, const features::StandardScaler& scaler,
      std::size_t target_dim, std::size_t cov_dim);

  /// One forward+backward pass; gradients accumulate into params.
  /// Returns the weighted mean NLL of the batch.
  double train_step(const Batch& batch);

  /// NLL without touching gradients (validation).
  double evaluate(const Batch& batch);

  // ---- forecasting (Algorithm 2, network half) ------------------------

  /// LSTM states (one per layer) for a batch of sequences.
  using StackState = std::vector<nn::LstmState>;

  /// Consume an observed prefix of one sequence: history holds its raw
  /// (unscaled) targets z_1..z_T, covs[t] the covariate vector of lap t+1
  /// (0-based). Step t of the result is the state after consuming input
  /// [z_t, x_{t+1}], i.e. the state from which lap t+2 would be predicted
  /// (T-1 steps). Each step is the slice of trace_step_size() doubles at
  /// t * trace_step_size(), laid out layer by layer, h then c, `hidden`
  /// values each.
  std::vector<double> trace_flat(
      const std::vector<double>& history,
      const std::vector<std::vector<double>>& covs, int car_index) const;
  std::size_t trace_step_size() const {
    return config_.num_layers * 2 * config_.hidden;
  }

  /// One batched trace of equal-length sequences that keeps only every
  /// `every`-th step: out[r] holds steps 0, every, 2 * every, ... of
  /// trace_flat(history[r], covs[r], car_index[r]), back to back. Rows are
  /// independent, so each kept step equals trace_flat's bit for bit.
  std::vector<std::vector<double>> trace_checkpoints(
      std::span<const std::vector<double>> history,
      std::span<const std::vector<std::vector<double>>> covs,
      std::span<const int> car_index, std::size_t every) const;

  /// Decode start state with one row per entry of `steps`, each a flat
  /// trace step (trace_step_size() doubles). A step may appear several
  /// times (one row per MC sample). Plain copies, so every row holds the
  /// traced state bit for bit.
  StackState state_from_trace(
      std::span<const std::span<const double>> steps) const;

  /// The inverse of state_from_trace: row r of `state` is written as the
  /// flat trace step at out[r * trace_step_size()]. Plain copies.
  void trace_from_state(const StackState& state, std::span<double> out) const;

  /// The inputs of `rows` parallel sequences (one per car_index entry),
  /// read in place. covs[r] holds row r's covariate rows back to back,
  /// `cov_width` doubles each, one per step from the call's first step:
  /// step k reads the row at covs[r][k * cov_width]. A step past the end of
  /// covs[r] reads zeros, and so do the inputs past cov_width of a row
  /// narrower than cov_dim. z holds raw target vectors (rank first),
  /// target_dim per row, row-major.
  struct SeqInputs {
    std::span<const std::span<const double>> covs;
    std::size_t cov_width = 0;
    std::span<const double> z;
    std::span<const int> car_index;
  };

  /// `steps` teacher-forced steps (no sampling), updating `state` in place:
  /// step t consumes [z, covariate row t] for each row, with z the t-th
  /// block of rows x target_dim values of in.z. Used to re-run encoder laps
  /// with inputs the trace did not see: a checkpoint replay, or the last
  /// laps with predicted shift features before sampling.
  void advance(StackState& state, const SeqInputs& in, std::size_t steps) const;

  /// Roll the sampler forward `horizon` steps from `state` (modified in
  /// place). in.z holds the last observed raw target vector per row; decode
  /// step h reads covariate row h. Returns the (rows x horizon) sampled
  /// ranks; the other target dims are fed back, not returned.
  ///
  /// All rows advance through the LSTM stack together: one decode step is
  /// one (rows x hidden) batch per layer, so all live cars' hidden states
  /// ride in a single GEMM instead of many per-car ones. Every row-level
  /// quantity (gates, head output, feedback) depends only on that row, so
  /// the batch may be any subset of cars/samples without changing results.
  tensor::Matrix sample_forward(StackState& state, const SeqInputs& in,
                                int horizon, util::Rng& rng) const;

  /// Partition-invariant variant: row r draws its Gaussian noise from its
  /// own stream row_rngs[r] (derived via util::Rng::stream keyed by
  /// (car, sample)), so the sampled trajectory of a row is byte-identical
  /// no matter how rows are grouped into batches or threads.
  tensor::Matrix sample_forward(StackState& state, const SeqInputs& in,
                                int horizon,
                                std::span<util::Rng> row_rngs) const;

  /// Shared-prefix decode-tree variant (DESIGN.md "Decode tree & forecast
  /// cache"). Rows are partitioned into branches: every member of a branch
  /// must enter the decode with byte-identical state and byte-identical
  /// step-1 inputs (z, covariate row 0, car_index). The first decode step
  /// then runs once per *branch* over `branch_state` (one state row per
  /// branch), rows fork by drawing their step-1 noise from their own row
  /// stream against the branch's (mu, sigma), and steps 2..horizon run at
  /// full row width through sample_forward's loop. Because the dispatched
  /// kernels are row-independent and the forked state is a plain row copy,
  /// the result is bit-identical to independent decode of the same rows —
  /// tests/test_decode_tree.cpp proves this differentially.
  ///
  /// branch_state is consumed (decode advances it; it is not stored back).
  /// branch_of_row[r] names row r's branch; branch b's step-1 inputs are
  /// read from its first member row.
  tensor::Matrix sample_forward_tree(
      StackState& branch_state, std::span<const std::size_t> branch_of_row,
      const SeqInputs& in, int horizon, std::span<util::Rng> row_rngs) const;

  std::vector<nn::Parameter*> params() override;

 private:
  /// One call's LSTM sessions, all at one row width, and the embedding
  /// rows of its cars; storage from the thread's workspace (ar_model.cpp).
  struct Stack;
  Stack make_stack(std::span<const int> car_index,
                   tensor::Workspace& ws) const;
  /// Stage input row r = [z row r, covariate row k of in.covs[r],
  /// embedding] for every row of the stack, then run it one step.
  void step(Stack& stack, const double* z, const SeqInputs& in,
            std::size_t k) const;
  /// Decode steps [first, horizon) at the stack's width: each samples,
  /// writes its clamped rank to out column h and feeds the draw back as z.
  void decode_steps(Stack& stack, const SeqInputs& in, tensor::MatrixView z,
                    int first, int horizon, util::Rng* rng,
                    std::span<util::Rng> row_rngs, tensor::Matrix& out,
                    tensor::Workspace& ws) const;
  /// Decode step h's draw: each row's clamped rank to out column h, and
  /// the draw back into z as the next step's input.
  void feed_back(tensor::ConstMatrixView sample, std::size_t h,
                 tensor::MatrixView z, tensor::Matrix& out) const;

  /// Shared body of both sample_forward overloads. Exactly one of (rng,
  /// row_rngs) supplies the Gaussian noise: rng != nullptr draws row-major
  /// from the single stream, otherwise row r draws from row_rngs[r].
  tensor::Matrix sample_forward_impl(
      StackState& state, const SeqInputs& in, int horizon, util::Rng* rng,
      std::span<util::Rng> row_rngs) const;

  SeqModelConfig config_;
  features::StandardScaler scaler_{0.0, 1.0};
  std::unique_ptr<nn::Embedding> embedding_;  // null when embed_dim == 0
  std::vector<std::unique_ptr<nn::LstmLayer>> layers_;
  std::unique_ptr<nn::GaussianHead> head_;
};

}  // namespace ranknet::core
