// Inference-runtime equivalence suite: every InferenceSession must be
// bit-identical (exact double equality, not EXPECT_NEAR) to the training
// layer it serves, across batch sizes, and the steady-state decode loop
// must perform zero heap allocations (asserted via the "workspace.*"
// registry counters).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/ar_model.hpp"
#include "core/transformer_model.hpp"
#include "nn/attention.hpp"
#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/gaussian.hpp"
#include "nn/inference.hpp"
#include "nn/lstm.hpp"
#include "tensor/workspace.hpp"
#include "test_support.hpp"

namespace {

using namespace ranknet;
using tensor::ConstMatrixView;
using tensor::Matrix;
using tensor::MatrixView;
using tensor::Workspace;
using test_support::arena_counts;
using util::Rng;

constexpr std::size_t kBatches[] = {1, 7, 64};

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.flat()[i], b.flat()[i]) << "element " << i;
  }
}

TEST(DenseSession, BitIdenticalAcrossActivationsAndBatches) {
  using nn::Activation;
  for (auto act : {Activation::kNone, Activation::kRelu, Activation::kTanh,
                   Activation::kSigmoid}) {
    Rng rng(100 + static_cast<std::uint64_t>(act));
    nn::Dense layer(5, 9, rng, act);
    nn::DenseInferenceSession session(layer);
    EXPECT_EQ(session.input_dim(), 5u);
    EXPECT_EQ(session.output_dim(), 9u);
    for (std::size_t batch : kBatches) {
      const Matrix x = Matrix::randn(batch, 5, rng);
      const Matrix expected = layer.forward_inference(x);
      Workspace ws;
      ws.begin();
      MatrixView y = ws.take(batch, 9);
      session.apply(x, y);
      expect_bit_identical(y.to_matrix(), expected);
    }
  }
}

TEST(EmbeddingSession, GatherBitIdenticalAndBoundsChecked) {
  Rng rng(7);
  nn::Embedding layer(6, 4, rng);
  nn::EmbeddingInferenceSession session(layer);
  const std::vector<int> indices = {3, 0, 5, 3, 1};
  const Matrix expected = layer.forward_inference(indices);
  Workspace ws;
  ws.begin();
  MatrixView out = ws.take(indices.size(), 4);
  session.gather(indices, out);
  expect_bit_identical(out.to_matrix(), expected);

  const std::vector<int> bad = {6};
  MatrixView bad_out = ws.take(1, 4);
  EXPECT_THROW(session.gather(bad, bad_out), std::out_of_range);
}

TEST(GaussianSession, ForwardBitIdentical) {
  Rng rng(21);
  nn::GaussianHead head(10, 3, rng);
  nn::GaussianInferenceSession session(head);
  EXPECT_EQ(session.target_dim(), 3u);
  for (std::size_t batch : kBatches) {
    const Matrix h = Matrix::randn(batch, 10, rng);
    const auto expected = head.forward_inference(h);
    Workspace ws;
    ws.begin();
    MatrixView mu = ws.take(batch, 3);
    MatrixView sigma = ws.take(batch, 3);
    session.forward(h, mu, sigma);
    expect_bit_identical(mu.to_matrix(), expected.mu);
    expect_bit_identical(sigma.to_matrix(), expected.sigma);
    // Sigma floor must match the training head exactly.
    for (double s : sigma.flat()) EXPECT_GE(s, nn::GaussianHead::kSigmaFloor);
  }
}

TEST(GaussianSession, SampleDrawOrderMatchesHead) {
  Rng rng(22);
  nn::GaussianHead head(6, 2, rng);
  const Matrix h = Matrix::randn(5, 6, rng);
  const auto out = head.forward_inference(h);

  // Single-stream draws: identical seed, identical draw sequence.
  Rng a(99), b(99);
  const Matrix expected = nn::GaussianHead::sample(out, a);
  Workspace ws;
  ws.begin();
  MatrixView got = ws.take(5, 2);
  nn::GaussianInferenceSession::sample(out.mu, out.sigma, b, got);
  expect_bit_identical(got.to_matrix(), expected);

  // Per-row streams (partition invariance path).
  std::vector<Rng> rows_a, rows_b;
  for (std::uint64_t r = 0; r < 5; ++r) {
    rows_a.emplace_back(1000 + r);
    rows_b.emplace_back(1000 + r);
  }
  const Matrix expected_rows = nn::GaussianHead::sample(out, rows_a);
  MatrixView got_rows = ws.take(5, 2);
  nn::GaussianInferenceSession::sample(out.mu, out.sigma, rows_b, got_rows);
  expect_bit_identical(got_rows.to_matrix(), expected_rows);

  std::vector<Rng> too_few;
  too_few.emplace_back(1);
  MatrixView sink = ws.take(5, 2);
  EXPECT_THROW(
      nn::GaussianInferenceSession::sample(out.mu, out.sigma, too_few, sink),
      std::invalid_argument);
}

TEST(LstmSession, StepBitIdenticalToLayerStepAcrossBatches) {
  Rng rng(33);
  nn::LstmLayer layer(4, 8, rng);
  for (std::size_t batch : kBatches) {
    // Training path: repeated single steps carrying state.
    nn::LstmState state(batch, 8);
    Workspace ws;
    ws.begin();
    nn::LstmInferenceSession session(layer, batch, ws);
    session.reset_state();
    for (int t = 0; t < 6; ++t) {
      const Matrix x = Matrix::randn(batch, 4, rng);
      const Matrix h_ref = layer.step(x, state);
      session.set_input(x);
      session.step();
      expect_bit_identical(session.h().to_matrix(), h_ref);
      expect_bit_identical(session.c().to_matrix(), state.c);
    }
  }
}

TEST(LstmSession, MatchesTrainingFullSequenceForward) {
  Rng rng(34);
  nn::LstmLayer layer(3, 5, rng);
  const std::size_t batch = 7;
  std::vector<Matrix> xs;
  for (int t = 0; t < 4; ++t) xs.push_back(Matrix::randn(batch, 3, rng));
  const auto hs = layer.forward(xs);

  Workspace ws;
  ws.begin();
  nn::LstmInferenceSession session(layer, batch, ws);
  session.reset_state();
  for (std::size_t t = 0; t < xs.size(); ++t) {
    session.set_input(xs[t]);
    session.step();
    expect_bit_identical(session.h().to_matrix(), hs[t]);
  }
}

TEST(LstmSession, LoadStoreStateRoundTripsAndXRowPacksInput) {
  Rng rng(35);
  nn::LstmLayer layer(4, 6, rng);
  const std::size_t batch = 3;
  nn::LstmState state(batch, 6);
  state.h = Matrix::randn(batch, 6, rng);
  state.c = Matrix::randn(batch, 6, rng);

  Workspace ws;
  ws.begin();
  nn::LstmInferenceSession session(layer, batch, ws);
  session.load_state(state);

  nn::LstmState ref = state;
  const Matrix x = Matrix::randn(batch, 4, rng);
  const Matrix h_ref = layer.step(x, ref);

  // Fill the input via the per-row input span instead of set_input.
  for (std::size_t r = 0; r < batch; ++r) {
    auto row = session.x_row(r);
    for (std::size_t c = 0; c < 4; ++c) row[c] = x(r, c);
  }
  session.step();
  expect_bit_identical(session.h().to_matrix(), h_ref);

  nn::LstmState out;
  session.store_state(out);
  expect_bit_identical(out.h, ref.h);
  expect_bit_identical(out.c, ref.c);

  nn::LstmState wrong(batch + 1, 6);
  EXPECT_THROW(session.load_state(wrong), std::invalid_argument);
}

TEST(AttentionSession, BitIdenticalToForwardInference) {
  Rng rng(44);
  nn::MultiHeadSelfAttention layer(8, 2, rng);
  const std::size_t seq_len = 5;
  for (std::size_t batch : {1u, 3u}) {
    const std::size_t rows = batch * seq_len;
    const Matrix x = Matrix::randn(rows, 8, rng);
    const Matrix expected = layer.forward_inference(x, seq_len);
    Workspace ws;
    ws.begin();
    nn::AttentionInferenceSession session(layer, rows, seq_len, ws);
    MatrixView y = ws.take(rows, 8);
    session.forward(x, y);
    expect_bit_identical(y.to_matrix(), expected);
  }
  Workspace ws;
  ws.begin();
  EXPECT_THROW(nn::AttentionInferenceSession(layer, 7, seq_len, ws),
               std::invalid_argument);
}

TEST(TransformerBlockSession, BitIdenticalToForwardInference) {
  Rng rng(45);
  nn::TransformerBlock block(8, 2, 16, rng);
  const std::size_t seq_len = 4;
  const std::size_t rows = 3 * seq_len;
  const Matrix x = Matrix::randn(rows, 8, rng);
  const Matrix expected = block.forward_inference(x, seq_len);
  Workspace ws;
  ws.begin();
  nn::TransformerBlockSession session(block, rows, seq_len, ws);
  MatrixView y = ws.take(rows, 8);
  session.forward(x, y);
  expect_bit_identical(y.to_matrix(), expected);
}

// ---- zero-allocation steady state ---------------------------------------

core::SeqModelConfig small_config() {
  core::SeqModelConfig config;
  config.cov_dim = 3;
  config.target_dim = 1;
  config.hidden = 8;
  config.num_layers = 2;
  config.embed_dim = 2;
  config.vocab = 5;
  return config;
}

Matrix run_sample_forward(const core::LstmSeqModel& model, std::size_t rows,
                          int horizon, std::uint64_t seed) {
  core::LstmSeqModel::StackState state;
  for (std::size_t l = 0; l < model.config().num_layers; ++l) {
    state.emplace_back(rows, model.config().hidden);
  }
  const std::size_t cov_dim = model.config().cov_dim;
  const std::vector<double> z(rows, 12.0);
  const std::vector<double> cov_rows(
      static_cast<std::size_t>(horizon) * cov_dim, 0.25);
  const std::vector<std::span<const double>> covs(rows, cov_rows);
  const std::vector<int> car_index(rows, 1);
  Rng rng(seed);
  return model.sample_forward(state, {covs, cov_dim, z, car_index}, horizon,
                              rng);
}

TEST(ZeroAlloc, LstmDecodeLoopSteadyState) {
  core::LstmSeqModel model(small_config());
  // Two warm-up calls: the first grows the thread-local arena; the second
  // runs warm, so its (reused) epoch is what the measured window records.
  run_sample_forward(model, 16, 5, 1);
  run_sample_forward(model, 16, 5, 2);

  const auto before = arena_counts();
  const Matrix out = run_sample_forward(model, 16, 5, 3);
  const auto after = arena_counts();

  EXPECT_EQ(out.rows(), 16u);
  EXPECT_EQ(after.block_allocs, before.block_allocs)
      << "steady-state decode loop allocated arena blocks";
  EXPECT_GT(after.takes, before.takes);
  EXPECT_GT(after.epochs, before.epochs);
  EXPECT_EQ(after.reused_epochs - before.reused_epochs,
            after.epochs - before.epochs)
      << "an epoch in the steady-state window had to grow the arena";
}

TEST(ZeroAlloc, LstmDecodeDeterministicAcrossArenaStates) {
  // Same seed, cold arena vs warm arena: byte-identical output (the arena
  // is scratch only; values never leak across epochs).
  core::LstmSeqModel model(small_config());
  const Matrix first = run_sample_forward(model, 4, 6, 42);
  const Matrix again = run_sample_forward(model, 4, 6, 42);
  expect_bit_identical(first, again);
}

TEST(ZeroAlloc, TransformerSampleForecastSteadyState) {
  core::TransformerConfig config;
  config.cov_dim = 3;
  config.target_dim = 1;
  config.model_dim = 8;
  config.heads = 2;
  config.blocks = 2;
  config.ffn_dim = 16;
  config.embed_dim = 2;
  config.vocab = 5;
  core::TransformerSeqModel model(config);

  const std::size_t rows = 3, ctx = 6;
  const int horizon = 4;
  std::vector<std::vector<double>> history(rows,
                                           std::vector<double>(ctx, 10.0));
  std::vector<std::vector<std::vector<double>>> covs(
      rows, std::vector<std::vector<double>>(
                ctx + static_cast<std::size_t>(horizon),
                std::vector<double>(config.cov_dim, 0.5)));
  std::vector<int> car_index(rows, 2);

  const auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    return model.sample_forecast(history, covs, car_index, horizon, rng);
  };
  run(1);
  run(2);
  const auto before = arena_counts();
  const Matrix out = run(3);
  const auto after = arena_counts();
  EXPECT_EQ(out.cols(), static_cast<std::size_t>(horizon));
  EXPECT_EQ(after.block_allocs, before.block_allocs);
  EXPECT_EQ(after.reused_epochs - before.reused_epochs,
            after.epochs - before.epochs);
}

}  // namespace
