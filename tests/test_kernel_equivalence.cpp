// Differential harness for the dispatched SIMD microkernels
// (tensor/simd_kernels.hpp).
//
// Three layers of guarantees, from strongest to weakest:
//   1. WITHIN the avx2 variant: bit-identity. Fused kernels must equal the
//      staged avx2 sequence byte-for-byte, batched rows must equal the same
//      rows computed alone, forecasts must be byte-stable run-to-run and
//      across engine thread counts.
//   2. ACROSS variants (scalar vs avx2): per-element ULP bounds on every
//      microkernel, and an end-to-end forecast MAE drift bound.
//   3. DISPATCH plumbing: RANKNET_KERNEL-style overrides select the right
//      table, unknown values fail fast with util::Status, and the
//      per-variant obs counters prove which variant actually ran.
//
// Every fixture restores the entry variant on teardown so test order never
// leaks a variant into unrelated suites.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "nn/inference.hpp"
#include "obs/metrics.hpp"
#include "simulator/season.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd_kernels.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"

namespace {

using namespace ranknet;
namespace tk = tensor::kernels;

// ---- ULP machinery -------------------------------------------------------

/// Monotone mapping of doubles onto an unsigned line so ULP distance is a
/// subtraction. NaN/Inf never count as close.
std::uint64_t ulp_key(double x) {
  const auto u = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kSign = 0x8000000000000000ull;
  return (u & kSign) ? kSign - (u & ~kSign) : u + kSign;
}

std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t ka = ulp_key(a), kb = ulp_key(b);
  return ka > kb ? ka - kb : kb - ka;
}

::testing::AssertionResult UlpClose(const std::vector<double>& a,
                                    const std::vector<double>& b,
                                    std::uint64_t bound) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t d = ulp_distance(a[i], b[i]);
    if (d > bound) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i] << " is "
             << d << " ulps apart (bound " << bound << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " differ in bits";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> random_vec(std::size_t n, util::Rng& rng, double lo = -2.0,
                               double hi = 2.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = lo + (hi - lo) * rng.uniform();
  return v;
}

// Cross-variant bounds. The avx2 GEMM keeps the scalar accumulation order
// (strictly sequential along k) and the 4-lane exp uses the same
// minimax-polynomial algorithm as the scalar code, so observed drift is
// zero-to-a-few ULP; the bounds leave headroom for contraction differences
// on other compilers without ever letting a structural bug (wrong element,
// tail overrun) through.
constexpr std::uint64_t kGemmUlp = 64;
constexpr std::uint64_t kPointwiseUlp = 8;
constexpr std::uint64_t kLstmUlp = 512;  // sigmoid/tanh cascade per step

// ---- fixture: save/restore the active variant ----------------------------

class KernelVariants : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = tk::active_variant();
    if (!tk::cpu_supports(tk::Variant::kAvx2)) {
      GTEST_SKIP() << "CPU lacks AVX2+FMA; differential tests skipped";
    }
  }
  void TearDown() override {
    if (tk::cpu_supports(saved_)) {
      ASSERT_TRUE(tk::set_variant(saved_).ok());
    }
  }
  tk::Variant saved_ = tk::Variant::kScalar;
};

// ---- dispatch plumbing ---------------------------------------------------

TEST(KernelDispatch, ParseVariantRoundTrips) {
  const auto s = tk::parse_variant("scalar");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), tk::Variant::kScalar);
  EXPECT_STREQ(tk::variant_name(s.value()), "scalar");

  const auto a = tk::parse_variant("avx2");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), tk::Variant::kAvx2);
  EXPECT_STREQ(tk::variant_name(a.value()), "avx2");
}

TEST(KernelDispatch, UnknownVariantFailsFast) {
  // "bf16" and "int8" name the retired reduced-precision variants: they
  // must fail fast like any other unknown value, never run silently.
  const tk::Variant before = tk::active_variant();
  for (const char* value : {"sse9", "bogus", "bf16", "int8"}) {
    SCOPED_TRACE(value);
    const auto r = tk::parse_variant(value);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);

    const util::Status st = tk::apply_env_override(value);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
    // A rejected override must not half-switch the table.
    EXPECT_EQ(tk::active_variant(), before);
  }
}

TEST(KernelDispatch, TableReportsItsVariant) {
  EXPECT_EQ(tk::table(tk::Variant::kScalar).variant, tk::Variant::kScalar);
  EXPECT_EQ(tk::table(tk::Variant::kAvx2).variant, tk::Variant::kAvx2);
  // The scalar table keeps the fused entries null so the byte-frozen staged
  // reference path in kernels.cpp keeps running (golden-file contract).
  EXPECT_EQ(tk::table(tk::Variant::kScalar).lstm_gates, nullptr);
  EXPECT_EQ(tk::table(tk::Variant::kScalar).dense_epilogue, nullptr);
}

TEST_F(KernelVariants, EnvOverrideSelectsVariant) {
  // "" / unset mean "best supported" — avx2 on this CPU (SetUp skipped us
  // otherwise).
  ASSERT_TRUE(tk::apply_env_override(nullptr).ok());
  EXPECT_EQ(tk::active_variant(), tk::Variant::kAvx2);
  ASSERT_TRUE(tk::apply_env_override("scalar").ok());
  EXPECT_EQ(tk::active_variant(), tk::Variant::kScalar);
  ASSERT_TRUE(tk::apply_env_override("avx2").ok());
  EXPECT_EQ(tk::active_variant(), tk::Variant::kAvx2);
  ASSERT_TRUE(tk::apply_env_override("").ok());
  EXPECT_EQ(tk::active_variant(), tk::Variant::kAvx2);
}

TEST_F(KernelVariants, ScalarOverrideForcesFallbackProvenByCounters) {
  auto& reg = obs::Registry::instance();
  auto& scalar_calls = reg.counter("tensor.kernel.scalar.calls");
  auto& avx2_calls = reg.counter("tensor.kernel.avx2.calls");

  tensor::Matrix a(3, 4), b(4, 5), c(3, 5);
  util::Rng rng(11);
  for (auto& x : a.flat()) x = rng.uniform();
  for (auto& x : b.flat()) x = rng.uniform();

  ASSERT_TRUE(tk::set_variant(tk::Variant::kScalar).ok());
  const auto s0 = scalar_calls.value();
  const auto a0 = avx2_calls.value();
  tensor::gemm(1.0, a, false, b, false, 0.0, c);
  EXPECT_GT(scalar_calls.value(), s0) << "scalar override did not run scalar";
  EXPECT_EQ(avx2_calls.value(), a0) << "scalar override still ran avx2";
  EXPECT_EQ(static_cast<int>(reg.gauge("tensor.kernel.active_variant").value()),
            static_cast<int>(tk::Variant::kScalar));

  ASSERT_TRUE(tk::set_variant(tk::Variant::kAvx2).ok());
  const auto a1 = avx2_calls.value();
  const auto s1 = scalar_calls.value();
  tensor::gemm(1.0, a, false, b, false, 0.0, c);
  EXPECT_GT(avx2_calls.value(), a1);
  EXPECT_EQ(scalar_calls.value(), s1);
}

// ---- microkernel differentials: scalar vs avx2 ---------------------------

TEST_F(KernelVariants, GemmUlpEquivalenceOnRemainderShapes) {
  // Shapes chosen to exercise every tail: m covers partial 4-row blocks,
  // n covers full 8-lane panels, the 4-lane panel, and masked tails, k
  // covers partial unrolls. n == 1 exercises the avx2 GEMV fast path.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 3, 1},  {1, 8, 1},  {2, 8, 4},  {3, 5, 33}, {4, 16, 8},
                {5, 13, 9}, {7, 37, 12}, {8, 9, 5},  {6, 20, 1}, {13, 7, 21}};
  util::Rng rng(42);
  for (const auto& s : shapes) {
    const auto a = random_vec(s.m * s.k, rng);
    const auto b = random_vec(s.k * s.n, rng);
    const auto c_init = random_vec(s.m * s.n, rng);
    for (const auto& [alpha, beta] : {std::pair{1.0, 0.0}, {0.5, 1.0}}) {
      auto c_scalar = c_init, c_avx2 = c_init;
      tk::table(tk::Variant::kScalar)
          .gemm_nn(alpha, a.data(), b.data(), beta, c_scalar.data(), s.m, s.k,
                   s.n);
      tk::table(tk::Variant::kAvx2)
          .gemm_nn(alpha, a.data(), b.data(), beta, c_avx2.data(), s.m, s.k,
                   s.n);
      EXPECT_TRUE(UlpClose(c_scalar, c_avx2, kGemmUlp))
          << "gemm " << s.m << "x" << s.k << "x" << s.n << " alpha=" << alpha
          << " beta=" << beta;
    }
  }
}

TEST_F(KernelVariants, PointwiseUlpEquivalence) {
  util::Rng rng(7);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}, std::size_t{8},
                              std::size_t{13}, std::size_t{31}}) {
    // Cover the exp-clamp saturation region and signed zero, not just the
    // well-behaved middle.
    auto base = random_vec(n, rng, -60.0, 60.0);
    if (n >= 2) {
      base[0] = 0.0;
      base[1] = -0.0;
    }
    using PointwiseMember = void (*tk::Dispatch::*)(double*, std::size_t);
    for (const PointwiseMember fn :
         {&tk::Dispatch::sigmoid, &tk::Dispatch::tanh}) {
      auto vs = base, va = base;
      (tk::table(tk::Variant::kScalar).*fn)(vs.data(), vs.size());
      (tk::table(tk::Variant::kAvx2).*fn)(va.data(), va.size());
      EXPECT_TRUE(UlpClose(vs, va, kPointwiseUlp)) << "n=" << n;
    }
  }
}

TEST_F(KernelVariants, HadamardUlpEquivalence) {
  util::Rng rng(19);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{4}, std::size_t{7}, std::size_t{30}}) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    const auto o_init = random_vec(n, rng);

    auto os = o_init, oa = o_init;
    tk::table(tk::Variant::kScalar).hadamard(x.data(), y.data(), os.data(), n);
    tk::table(tk::Variant::kAvx2).hadamard(x.data(), y.data(), oa.data(), n);
    // One IEEE multiply per element on both sides: exact.
    EXPECT_TRUE(BitEqual(os, oa)) << "hadamard n=" << n;

    os = o_init;
    oa = o_init;
    tk::table(tk::Variant::kScalar)
        .hadamard_add(x.data(), y.data(), os.data(), n);
    tk::table(tk::Variant::kAvx2)
        .hadamard_add(x.data(), y.data(), oa.data(), n);
    // mul+add vs FMA: at most one rounding apart.
    EXPECT_TRUE(UlpClose(os, oa, 1)) << "hadamard_add n=" << n;

    auto ms = random_vec(3 * n, rng);
    auto ma = ms;
    tk::table(tk::Variant::kScalar).add_bias_rows(ms.data(), x.data(), 3, n);
    tk::table(tk::Variant::kAvx2).add_bias_rows(ma.data(), x.data(), 3, n);
    EXPECT_TRUE(BitEqual(ms, ma)) << "add_bias_rows n=" << n;
  }
}

// ---- fused avx2 kernels vs the staged avx2 primitives --------------------

TEST_F(KernelVariants, FusedLstmGatesBitIdenticalToStagedAvx2) {
  const auto& avx2 = tk::table(tk::Variant::kAvx2);
  ASSERT_NE(avx2.lstm_gates, nullptr);
  util::Rng rng(23);
  for (const std::size_t hidden :
       {std::size_t{5}, std::size_t{13}, std::size_t{37}}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      const auto gates = random_vec(batch * 4 * hidden, rng, -3.0, 3.0);
      const auto bias = random_vec(4 * hidden, rng);
      const auto c_init = random_vec(batch * hidden, rng);

      auto c_fused = c_init;
      std::vector<double> h_fused(batch * hidden);
      avx2.lstm_gates(gates.data(), bias.data(), c_fused.data(),
                      h_fused.data(), batch, hidden);

      // Staged reference built from the SAME avx2 primitives the fused
      // kernel claims to be equivalent to: per-gate contiguous buffers,
      // avx2 sigmoid/tanh, then the per-element fma(i, g, f*c) state
      // update. Lane-pure pointwise kernels make the gather irrelevant.
      auto c_staged = c_init;
      std::vector<double> h_staged(batch * hidden);
      std::vector<double> ib(hidden), fb(hidden), gb(hidden), ob(hidden),
          tc(hidden);
      for (std::size_t r = 0; r < batch; ++r) {
        const double* g_row = gates.data() + r * 4 * hidden;
        for (std::size_t j = 0; j < hidden; ++j) {
          ib[j] = g_row[j] + bias[j];
          fb[j] = g_row[hidden + j] + bias[hidden + j];
          gb[j] = g_row[2 * hidden + j] + bias[2 * hidden + j];
          ob[j] = g_row[3 * hidden + j] + bias[3 * hidden + j];
        }
        avx2.sigmoid(ib.data(), hidden);
        avx2.sigmoid(fb.data(), hidden);
        avx2.tanh(gb.data(), hidden);
        avx2.sigmoid(ob.data(), hidden);
        for (std::size_t j = 0; j < hidden; ++j) {
          double& c = c_staged[r * hidden + j];
          c = std::fma(ib[j], gb[j], fb[j] * c);
          tc[j] = c;
        }
        avx2.tanh(tc.data(), hidden);
        for (std::size_t j = 0; j < hidden; ++j) {
          h_staged[r * hidden + j] = ob[j] * tc[j];
        }
      }
      EXPECT_TRUE(BitEqual(c_fused, c_staged))
          << "c, H=" << hidden << " B=" << batch;
      EXPECT_TRUE(BitEqual(h_fused, h_staged))
          << "h, H=" << hidden << " B=" << batch;
    }
  }
}

TEST_F(KernelVariants, LstmCellStepUlpAcrossVariants) {
  // Full gate GEMM pair + gate epilogue under each variant; hidden sizes
  // are deliberately not multiples of 8 (or 4) to stress the lane tails.
  util::Rng rng(31);
  for (const std::size_t hidden :
       {std::size_t{5}, std::size_t{13}, std::size_t{37}}) {
    const std::size_t batch = 7, in = 9;
    tensor::Workspace ws;
    ws.begin();
    auto x = ws.take(batch, in);
    auto wx = ws.take(in, 4 * hidden);
    auto wh = ws.take(hidden, 4 * hidden);
    for (std::size_t i = 0; i < batch * in; ++i) {
      x.data()[i] = rng.uniform() - 0.5;
    }
    for (auto w : {wx, wh}) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.uniform() - 0.5;
      }
    }
    const auto h_init = random_vec(batch * hidden, rng);
    const auto bias = random_vec(4 * hidden, rng);
    const auto c_init = random_vec(batch * hidden, rng);

    std::vector<std::vector<double>> cs, hs;
    for (const auto v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
      ASSERT_TRUE(tk::set_variant(v).ok());
      auto c = ws.take(batch, hidden);
      auto h = ws.take(batch, hidden);
      std::memcpy(c.data(), c_init.data(), 8 * batch * hidden);
      std::memcpy(h.data(), h_init.data(), 8 * batch * hidden);
      tensor::LstmStepScratch scratch{
          ws.take(batch, 4 * hidden), ws.take(batch, 3 * hidden),
          ws.take(batch, hidden),     ws.take(batch, hidden),
          ws.take(batch, hidden),     ws.take(batch, hidden),
          ws.take(batch, hidden),     ws.take(batch, hidden)};
      tensor::lstm_cell_step(x, wx, wh, bias, c, h, scratch);
      cs.emplace_back(c.data(), c.data() + batch * hidden);
      hs.emplace_back(h.data(), h.data() + batch * hidden);
    }
    EXPECT_TRUE(UlpClose(cs[0], cs[1], kLstmUlp)) << "c, H=" << hidden;
    EXPECT_TRUE(UlpClose(hs[0], hs[1], kLstmUlp)) << "h, H=" << hidden;
  }
}

TEST_F(KernelVariants, DenseAndGaussianHeadUlpAcrossVariants) {
  util::Rng rng(37);
  const std::size_t rows = 5, in = 13, out = 3;
  nn::Dense dense(in, out, rng, nn::Activation::kTanh, "difftest");
  nn::GaussianHead head(in, 1, rng, "difftest.head");
  tensor::Matrix x(rows, in);
  for (auto& v : x.flat()) v = rng.uniform() - 0.5;

  ASSERT_TRUE(tk::set_variant(tk::Variant::kScalar).ok());
  const auto ys = dense.forward_inference(x);
  const auto gs = head.forward_inference(x);
  ASSERT_TRUE(tk::set_variant(tk::Variant::kAvx2).ok());
  const auto ya = dense.forward_inference(x);
  const auto ga = head.forward_inference(x);

  auto flat = [](const tensor::Matrix& m) {
    return std::vector<double>(m.flat().begin(), m.flat().end());
  };
  EXPECT_TRUE(UlpClose(flat(ys), flat(ya), kLstmUlp));
  EXPECT_TRUE(UlpClose(flat(gs.mu), flat(ga.mu), kLstmUlp));
  EXPECT_TRUE(UlpClose(flat(gs.sigma), flat(ga.sigma), kLstmUlp));
}

// ---- batching degeneracy: K rows together ≡ each row alone ---------------

TEST_F(KernelVariants, BatchedRowsBitIdenticalToSingleRows) {
  // Row independence is what makes the engine's per-car partitioning (and
  // any K-sample batching) thread-count invariant: computing row r inside a
  // (7 x n) batch must give the same bits as computing it in a (1 x n) call.
  util::Rng rng(53);
  const std::size_t m = 7, k = 13, n = 9;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  for (const auto v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    std::vector<double> c_batch(m * n, 0.0);
    tk::table(v).gemm_nn(1.0, a.data(), b.data(), 0.0, c_batch.data(), m, k,
                         n);
    for (std::size_t r = 0; r < m; ++r) {
      std::vector<double> c_row(n, 0.0);
      tk::table(v).gemm_nn(1.0, a.data() + r * k, b.data(), 0.0, c_row.data(),
                           1, k, n);
      const std::vector<double> batch_row(c_batch.begin() + r * n,
                                          c_batch.begin() + (r + 1) * n);
      EXPECT_TRUE(BitEqual(batch_row, c_row))
          << tk::variant_name(v) << " row " << r;
    }
  }
}

TEST_F(KernelVariants, SessionBatchOneBitIdenticalToBatchRow) {
  // K=1 degenerate batch ≡ the same sample inside a K=3 batch, per variant.
  util::Rng rng(61);
  nn::LstmLayer layer(6, 13, rng, "difftest.lstm");
  tensor::Matrix x3(3, 6);
  for (auto& v : x3.flat()) v = rng.uniform() - 0.5;

  for (const auto v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    ASSERT_TRUE(tk::set_variant(v).ok());
    tensor::Workspace ws;
    ws.begin();
    nn::LstmInferenceSession s3(layer, 3, ws);
    nn::LstmInferenceSession s1(layer, 1, ws);
    s3.reset_state();
    s1.reset_state();
    for (int step = 0; step < 4; ++step) {
      s3.set_input(tensor::ConstMatrixView(x3));
      auto r = s1.x_row(0);
      for (std::size_t c = 0; c < 6; ++c) r[c] = x3(0, c);
      s3.step();
      s1.step();
    }
    for (std::size_t j = 0; j < 13; ++j) {
      EXPECT_EQ(s1.h()(0, j), s3.h()(0, j)) << tk::variant_name(v);
      EXPECT_EQ(s1.c()(0, j), s3.c()(0, j)) << tk::variant_name(v);
    }
  }
}

// ---- end-to-end: forecast drift, determinism, thread invariance ----------

class ForecastEquivalence : public KernelVariants {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest}));
    vocab_ = new features::CarVocab({*race_});

    core::SeqModelConfig cfg;
    cfg.cov_dim = features::CovariateConfig{}.dim();
    cfg.hidden = 13;  // deliberately not a multiple of the lane width
    cfg.embed_dim = 2;
    cfg.vocab = vocab_->size();
    model_ = std::make_shared<core::LstmSeqModel>(cfg);
    model_->set_scaler(features::StandardScaler(17.0, 9.0));
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete vocab_;
    delete race_;
  }

  static core::RaceSamples Forecast(std::uint64_t seed, int samples = 6) {
    core::RankNetForecaster f(model_, nullptr, *vocab_,
                              features::CovariateConfig{},
                              core::StatusSource::kOracle, "difftest");
    util::Rng rng(seed);
    return f.forecast(*race_, 50, 4, samples, rng);
  }

  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
};
telemetry::RaceLog* ForecastEquivalence::race_ = nullptr;
features::CarVocab* ForecastEquivalence::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> ForecastEquivalence::model_;

TEST_F(ForecastEquivalence, CrossVariantForecastDriftBounded) {
  ASSERT_TRUE(tk::set_variant(tk::Variant::kScalar).ok());
  const auto scalar = Forecast(97);
  ASSERT_TRUE(tk::set_variant(tk::Variant::kAvx2).ok());
  const auto avx2 = Forecast(97);

  ASSERT_FALSE(scalar.empty());
  ASSERT_EQ(scalar.size(), avx2.size());
  double abs_sum = 0.0;
  std::size_t count = 0;
  for (const auto& [car_id, m] : scalar) {
    const auto& n = avx2.at(car_id);
    ASSERT_EQ(m.rows(), n.rows());
    ASSERT_EQ(m.cols(), n.cols());
    for (std::size_t i = 0; i < m.size(); ++i) {
      ASSERT_TRUE(std::isfinite(n.flat()[i]));
      abs_sum += std::abs(m.flat()[i] - n.flat()[i]);
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  EXPECT_LT(abs_sum / static_cast<double>(count), 1e-6)
      << "scalar vs avx2 forecast MAE drift";
}

TEST_F(ForecastEquivalence, Avx2RunToRunBitIdentical) {
  ASSERT_TRUE(tk::set_variant(tk::Variant::kAvx2).ok());
  const auto a = Forecast(101);
  const auto b = Forecast(101);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [car_id, m] : a) {
    const auto& n = b.at(car_id);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.flat()[i]),
                std::bit_cast<std::uint64_t>(n.flat()[i]));
    }
  }
}

TEST_F(ForecastEquivalence, Avx2BitIdenticalAcrossEngineThreadCounts) {
  ASSERT_TRUE(tk::set_variant(tk::Variant::kAvx2).ok());
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "difftest");
  util::Rng direct_rng(7);
  const auto direct = f.forecast(*race_, 50, 4, 6, direct_rng);
  ASSERT_FALSE(direct.empty());

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    core::ParallelForecastEngine engine(f, threads);
    util::Rng rng(7);
    const auto out = engine.forecast(*race_, 50, 4, 6, rng);
    ASSERT_EQ(out.size(), direct.size()) << threads << " threads";
    for (const auto& [car_id, m] : direct) {
      const auto& n = out.at(car_id);
      ASSERT_EQ(m.size(), n.size());
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(m.flat()[i]),
                  std::bit_cast<std::uint64_t>(n.flat()[i]))
            << car_id << " at " << threads << " threads";
      }
    }
  }
}

TEST_F(ForecastEquivalence, ZeroSampleForecastThrowsUnderBothVariants) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "difftest");
  for (const auto v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    ASSERT_TRUE(tk::set_variant(v).ok());
    util::Rng rng(1);
    EXPECT_THROW(f.forecast(*race_, 50, 4, 0, rng), std::invalid_argument)
        << tk::variant_name(v);
  }
}

}  // namespace
