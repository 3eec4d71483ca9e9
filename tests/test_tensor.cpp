#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "tensor/opcount.hpp"
#include "tensor/serialize.hpp"
#include "tensor/view.hpp"
#include "tensor/workspace.hpp"
#include "test_support.hpp"

#include <sstream>

namespace {

using ranknet::tensor::Kernel;
using ranknet::tensor::Matrix;
using ranknet::tensor::OpCounters;
using ranknet::util::Rng;

/// Reference O(n^3) gemm with explicit index transposition.
Matrix naive_gemm(double alpha, const Matrix& a, bool ta, const Matrix& b,
                  bool tb, double beta, Matrix c) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double av = ta ? a(p, i) : a(i, p);
        const double bv = tb ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
  return c;
}

class GemmParamTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {
};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const auto [ta, tb, m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n + (ta ? 1 : 0) +
                                     (tb ? 2 : 0)));
  const Matrix a = ta ? Matrix::randn(k, m, rng) : Matrix::randn(m, k, rng);
  const Matrix b = tb ? Matrix::randn(n, k, rng) : Matrix::randn(k, n, rng);
  Matrix c = Matrix::randn(m, n, rng);
  const double alpha = 1.3, beta = 0.7;

  const Matrix expected = naive_gemm(alpha, a, ta, b, tb, beta, c);
  ranknet::tensor::gemm(alpha, a, ta, b, tb, beta, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.flat()[i], expected.flat()[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposesAndShapes, GemmParamTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 3, 8), ::testing::Values(1, 5, 16),
                       ::testing::Values(1, 4, 9)));

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(ranknet::tensor::gemm(1.0, a, false, b, false, 0.0, c),
               std::invalid_argument);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(3);
  const Matrix a = Matrix::randn(4, 4, rng);
  const Matrix b = Matrix::randn(4, 4, rng);
  Matrix c(4, 4, std::numeric_limits<double>::quiet_NaN());
  ranknet::tensor::gemm(1.0, a, false, b, false, 0.0, c);
  for (double v : c.flat()) EXPECT_TRUE(std::isfinite(v));
}

/// Runs `body` once per CPU-supported kernel variant, restoring the entry
/// variant afterwards. The remainder tests below must hold for every
/// variant, not just whichever one dispatch picked at startup.
template <typename Fn>
void for_each_variant(Fn body) {
  namespace tk = ranknet::tensor::kernels;
  const tk::Variant saved = tk::active_variant();
  for (const auto v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    if (!tk::cpu_supports(v)) continue;
    ASSERT_TRUE(tk::set_variant(v).ok());
    body(tk::variant_name(v));
  }
  ASSERT_TRUE(tk::set_variant(saved).ok());
}

TEST(Gemm, RemainderShapesMatchNaiveUnderEachVariant) {
  // Shapes straddling every vector-width boundary: partial 4-row blocks,
  // 8/4/masked column tails, odd k, and the n == 1 GEMV route. A bug in
  // the remainder handling of a blocked kernel shows up exactly here.
  const struct {
    int m, k, n;
  } shapes[] = {{1, 7, 1},  {2, 3, 33}, {5, 13, 9},
                {6, 20, 1}, {7, 37, 12}, {13, 9, 5}};
  for_each_variant([&](const char* variant) {
    for (const auto& s : shapes) {
      Rng rng(static_cast<std::uint64_t>(s.m * 1000 + s.k * 10 + s.n));
      const Matrix a = Matrix::randn(s.m, s.k, rng);
      const Matrix b = Matrix::randn(s.k, s.n, rng);
      Matrix c = Matrix::randn(s.m, s.n, rng);
      const Matrix expected = naive_gemm(0.7, a, false, b, false, 1.3, c);
      ranknet::tensor::gemm(0.7, a, false, b, false, 1.3, c);
      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c.flat()[i], expected.flat()[i], 1e-10)
            << variant << " " << s.m << "x" << s.k << "x" << s.n;
      }
    }
  });
}

TEST(Gemm, ZeroRowBatchIsANoOpUnderEachVariant) {
  // A K=0 sample batch degenerates to an (0 x k) GEMM: nothing to compute,
  // nothing to touch, no crash — under either variant.
  for_each_variant([&](const char* variant) {
    const Matrix a(0, 5);
    const Matrix b(5, 9);
    Matrix c(0, 9);
    ranknet::tensor::gemm(1.0, a, false, b, false, 0.0, c);
    EXPECT_TRUE(c.empty()) << variant;
  });
}

TEST(Kernels, LstmCellStepMatchesNaiveOnOddHiddenSizes) {
  // Full packed cell against a from-scratch std::exp reference, at hidden
  // sizes that are not multiples of the 4-lane width, batches including the
  // K=1 degenerate. Catches tail overruns/underruns that cross-variant
  // diffing alone could miss (both variants sharing the same wrong tail).
  namespace t = ranknet::tensor;
  for_each_variant([&](const char* variant) {
    for (const std::size_t hidden : {std::size_t{5}, std::size_t{13}}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
        const std::size_t in = 7;
        Rng rng(17 + hidden + batch);
        const Matrix xh = Matrix::randn(batch, in + hidden, rng);
        const Matrix w = Matrix::randn(in + hidden, 4 * hidden, rng);
        const Matrix bias_m = Matrix::randn(1, 4 * hidden, rng);
        const Matrix c0 = Matrix::randn(batch, hidden, rng);

        // The cell reads x = xh[:, :in] and h_prev = xh[:, in:] against
        // wx = w[:in] and wh = w[in:].
        Matrix x(batch, in), wx(in, 4 * hidden), wh(hidden, 4 * hidden);
        for (std::size_t r = 0; r < batch; ++r) {
          for (std::size_t p = 0; p < in; ++p) x(r, p) = xh(r, p);
        }
        for (std::size_t p = 0; p < in + hidden; ++p) {
          for (std::size_t col = 0; col < 4 * hidden; ++col) {
            (p < in ? wx(p, col) : wh(p - in, col)) = w(p, col);
          }
        }

        t::Workspace ws;
        ws.begin();
        auto c = ws.take(batch, hidden);
        auto h = ws.take(batch, hidden);
        for (std::size_t r = 0; r < batch; ++r) {
          for (std::size_t j = 0; j < hidden; ++j) {
            c(r, j) = c0(r, j);
            h(r, j) = xh(r, in + j);
          }
        }
        t::LstmStepScratch scratch{
            ws.take(batch, 4 * hidden), ws.take(batch, 3 * hidden),
            ws.take(batch, hidden),     ws.take(batch, hidden),
            ws.take(batch, hidden),     ws.take(batch, hidden),
            ws.take(batch, hidden),     ws.take(batch, hidden)};
        t::lstm_cell_step(t::ConstMatrixView(x), t::ConstMatrixView(wx),
                          t::ConstMatrixView(wh),
                          t::ConstMatrixView(bias_m).row(0), c, h, scratch);

        const auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
        for (std::size_t r = 0; r < batch; ++r) {
          for (std::size_t j = 0; j < hidden; ++j) {
            double g[4];
            for (int gate = 0; gate < 4; ++gate) {
              double acc = 0.0;
              for (std::size_t p = 0; p < in + hidden; ++p) {
                acc += xh(r, p) * w(p, gate * hidden + j);
              }
              g[gate] = acc + bias_m(0, gate * hidden + j);
            }
            const double iv = sigmoid(g[0]), fv = sigmoid(g[1]);
            const double gv = std::tanh(g[2]), ov = sigmoid(g[3]);
            const double cv = fv * c0(r, j) + iv * gv;
            EXPECT_NEAR(c(r, j), cv, 1e-9)
                << variant << " c H=" << hidden << " B=" << batch;
            EXPECT_NEAR(h(r, j), ov * std::tanh(cv), 1e-9)
                << variant << " h H=" << hidden << " B=" << batch;
          }
        }
      }
    }
  });
}

TEST(Kernels, ZeroLengthPointwiseIsANoOp) {
  namespace tk = ranknet::tensor::kernels;
  for_each_variant([&](const char* variant) {
    const auto& d = tk::dispatch();
    double sentinel = 42.0;
    d.sigmoid(&sentinel, 0);
    d.tanh(&sentinel, 0);
    d.hadamard(&sentinel, &sentinel, &sentinel, 0);
    d.hadamard_add(&sentinel, &sentinel, &sentinel, 0);
    d.add_bias_rows(&sentinel, &sentinel, 0, 3);
    EXPECT_DOUBLE_EQ(sentinel, 42.0) << variant;
  });
}

TEST(Kernels, HadamardAndAxpy) {
  Matrix a(2, 2), b(2, 2), out(2, 2);
  a(0, 0) = 2;
  a(1, 1) = 3;
  b(0, 0) = 4;
  b(1, 1) = 5;
  ranknet::tensor::hadamard(a, b, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(out(1, 1), 15.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);
  ranknet::tensor::axpy(2.0, a, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 12.0);
}

TEST(Kernels, BiasAndRowSums) {
  Matrix m(2, 3, 1.0);
  const std::vector<double> bias{1.0, 2.0, 3.0};
  ranknet::tensor::add_bias_rows(m, bias);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
  std::vector<double> sums(3, 0.0);
  ranknet::tensor::sum_rows(m, sums);
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  EXPECT_DOUBLE_EQ(sums[2], 8.0);
}

TEST(Kernels, SigmoidTanhSoftplusValues) {
  Matrix m(1, 3);
  m(0, 0) = 0.0;
  m(0, 1) = 100.0;
  m(0, 2) = -100.0;
  Matrix s = m;
  ranknet::tensor::sigmoid_inplace(s);
  EXPECT_NEAR(s(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(s(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(s(0, 2), 0.0, 1e-12);
  Matrix t = m;
  ranknet::tensor::tanh_inplace(t);
  EXPECT_NEAR(t(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(t(0, 1), 1.0, 1e-12);
  Matrix p = m;
  ranknet::tensor::softplus_inplace(p);
  EXPECT_NEAR(p(0, 0), std::log(2.0), 1e-12);
  EXPECT_NEAR(p(0, 1), 100.0, 1e-9);   // large x: softplus(x) ~ x
  EXPECT_NEAR(p(0, 2), 0.0, 1e-12);    // very negative: ~ 0, not -inf
}

TEST(Kernels, SoftmaxRowsSumToOneAndOrder) {
  Rng rng(4);
  Matrix m = Matrix::randn(5, 7, rng, 3.0);
  Matrix original = m;
  ranknet::tensor::softmax_rows(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_GT(m(r, c), 0.0);
      total += m(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    // Softmax preserves ordering.
    for (std::size_t c = 1; c < m.cols(); ++c) {
      EXPECT_EQ(original(r, c) > original(r, c - 1),
                m(r, c) > m(r, c - 1));
    }
  }
}

TEST(OpCount, GemmBooksFlops) {
  auto& counters = OpCounters::instance();
  counters.reset();
  Matrix a(8, 16), b(16, 4), c(8, 4);
  ranknet::tensor::gemm(1.0, a, false, b, false, 0.0, c);
  const auto& s = counters.stats(Kernel::kMatMul);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.flops, 2ull * 8 * 16 * 4);
  EXPECT_GT(s.bytes, 0u);
  counters.reset();
  EXPECT_EQ(counters.stats(Kernel::kMatMul).calls, 0u);
}

TEST(OpCount, ProfilingRecordsTime) {
  auto& counters = OpCounters::instance();
  counters.reset();
  counters.set_profiling(true);
  Rng rng(5);
  Matrix a = Matrix::randn(64, 64, rng);
  Matrix b = Matrix::randn(64, 64, rng);
  Matrix c(64, 64);
  ranknet::tensor::gemm(1.0, a, false, b, false, 0.0, c);
  counters.set_profiling(false);
  EXPECT_GT(counters.stats(Kernel::kMatMul).seconds, 0.0);
  EXPECT_GT(counters.stats(Kernel::kMatMul).gflops(), 0.0);
  counters.reset();
}

TEST(Matrix, SerializeRoundTrip) {
  Rng rng(6);
  const Matrix m = Matrix::randn(7, 3, rng);
  std::stringstream ss;
  ranknet::tensor::write_matrix(ss, m);
  const Matrix back = ranknet::tensor::read_matrix(ss);
  EXPECT_TRUE(m == back);
}

TEST(Matrix, ReshapeAndRowSpan) {
  Matrix m(2, 6, 1.0);
  m(1, 5) = 9.0;
  m.reshape(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 3), 9.0);
  auto row = m.row(2);
  EXPECT_EQ(row.size(), 4u);
  row[0] = 7.0;
  EXPECT_DOUBLE_EQ(m(2, 0), 7.0);
}

// ---- aliasing contract (view kernels) -----------------------------------
// The inference runtime feeds arena views back into kernels as both input
// and output (e.g. c = f.c + i.g updates c in place), so the documented
// "exact alias" cases must produce the same values as the unaliased call.

TEST(KernelAliasing, HadamardOutAliasesEitherInput) {
  Rng rng(11);
  const Matrix a0 = Matrix::randn(3, 5, rng);
  const Matrix b0 = Matrix::randn(3, 5, rng);
  Matrix expected(3, 5);
  ranknet::tensor::hadamard(a0, b0, expected);

  Matrix a = a0;  // out == a
  ranknet::tensor::hadamard(ranknet::tensor::ConstMatrixView(a), b0,
                            ranknet::tensor::MatrixView(a));
  EXPECT_TRUE(a == expected);

  Matrix b = b0;  // out == b
  ranknet::tensor::hadamard(a0, ranknet::tensor::ConstMatrixView(b),
                            ranknet::tensor::MatrixView(b));
  EXPECT_TRUE(b == expected);

  Matrix s = a0;  // out == a == b (squaring in place)
  ranknet::tensor::hadamard(ranknet::tensor::ConstMatrixView(s),
                            ranknet::tensor::ConstMatrixView(s),
                            ranknet::tensor::MatrixView(s));
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.flat()[i], a0.flat()[i] * a0.flat()[i]);
  }
}

TEST(KernelAliasing, HadamardAddOutAliasesEitherInput) {
  Rng rng(12);
  const Matrix a0 = Matrix::randn(4, 3, rng);
  const Matrix b0 = Matrix::randn(4, 3, rng);

  Matrix expected = a0;  // out == a: a += a .* b
  ranknet::tensor::hadamard_add(a0, b0, expected);
  Matrix a = a0;
  ranknet::tensor::hadamard_add(ranknet::tensor::ConstMatrixView(a), b0,
                                ranknet::tensor::MatrixView(a));
  EXPECT_TRUE(a == expected);

  Matrix expected_b = b0;  // out == b: b += a .* b
  ranknet::tensor::hadamard_add(a0, b0, expected_b);
  Matrix b = b0;
  ranknet::tensor::hadamard_add(a0, ranknet::tensor::ConstMatrixView(b),
                                ranknet::tensor::MatrixView(b));
  EXPECT_TRUE(b == expected_b);
}

TEST(KernelAliasing, SoftmaxRowsViewMatchesMatrixOverload) {
  Rng rng(13);
  Matrix m = Matrix::randn(3, 6, rng);
  Matrix expected = m;
  ranknet::tensor::softmax_rows(expected);
  // View overload over the same storage (in place by design).
  ranknet::tensor::softmax_rows(ranknet::tensor::MatrixView(m));
  EXPECT_TRUE(m == expected);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) total += m(r, c);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

// ---- workspace arena ----------------------------------------------------

TEST(Workspace, SteadyStateReusesBlocksWithoutAllocating) {
  ranknet::tensor::Workspace ws;
  ws.begin();
  auto v1 = ws.take(8, 16);
  auto v2 = ws.take_zeroed(4, 4);
  for (double x : v2.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
  const std::size_t allocs_warm = ws.block_allocs();
  EXPECT_GE(allocs_warm, 1u);
  const double* p1 = v1.data();

  // Same shapes next epoch: same storage, no new blocks.
  for (int epoch = 0; epoch < 3; ++epoch) {
    ws.begin();
    auto w1 = ws.take(8, 16);
    auto w2 = ws.take(4, 4);
    EXPECT_EQ(w1.data(), p1);
    EXPECT_EQ(w2.rows(), 4u);
    EXPECT_EQ(ws.block_allocs(), allocs_warm);
  }
}

TEST(Workspace, GrowthKeepsOutstandingViewsValid) {
  ranknet::tensor::Workspace ws;
  ws.begin();
  auto small = ws.take(2, 2);
  small.fill(3.5);
  // Force growth past the first block; `small` must still read 3.5
  // (blocks never reallocate within an epoch).
  auto big = ws.take(512, 512);
  big.set_zero();
  for (double x : small.flat()) EXPECT_DOUBLE_EQ(x, 3.5);
  EXPECT_GE(ws.capacity(), small.size() + big.size());
}

TEST(Workspace, CountersBookEpochsTakesAndReuse) {
  const auto before = ranknet::test_support::arena_counts();
  ranknet::tensor::Workspace ws;
  ws.begin();
  (void)ws.take(16, 16);
  ws.begin();  // warm epoch: no growth
  (void)ws.take(16, 16);
  const auto after = ranknet::test_support::arena_counts();
  EXPECT_EQ(after.epochs - before.epochs, 2u);
  EXPECT_EQ(after.takes - before.takes, 2u);
  EXPECT_GE(after.block_allocs - before.block_allocs, 1u);
  EXPECT_GE(after.reused_epochs - before.reused_epochs, 1u);
  EXPECT_GT(ranknet::obs::Registry::instance()
                .gauge("workspace.high_water_bytes")
                .value(),
            0.0);
}

}  // namespace
