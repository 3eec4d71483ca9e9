// Behavioral tests of the NN stack: optimizer convergence, serialization,
// sampling, and the batch/step equivalences the forecaster relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/adam.hpp"
#include "nn/dense.hpp"
#include "tensor/kernels.hpp"
#include "nn/gaussian.hpp"
#include "nn/lstm.hpp"
#include "nn/serialize.hpp"
#include "tensor/serialize.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"

namespace {

using namespace ranknet;
using nn::Activation;
using nn::Dense;
using nn::GaussianHead;
using tensor::Matrix;
using util::Rng;

TEST(Adam, MinimizesQuadratic) {
  // One parameter, loss (w - 3)^2 per element.
  nn::Parameter w("w", Matrix(2, 2, 10.0));
  nn::AdamConfig cfg;
  cfg.lr = 0.1;
  nn::Adam adam({&w}, cfg);
  for (int i = 0; i < 500; ++i) {
    for (std::size_t j = 0; j < w.value.size(); ++j) {
      w.grad.flat()[j] = 2.0 * (w.value.flat()[j] - 3.0);
    }
    adam.step();
  }
  for (double v : w.value.flat()) EXPECT_NEAR(v, 3.0, 1e-3);
}

TEST(Adam, StepZeroesGradients) {
  nn::Parameter w("w", Matrix(1, 4, 1.0));
  nn::Adam adam({&w});
  w.grad.fill(5.0);
  adam.step();
  for (double g : w.grad.flat()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Adam, ClipGradientsBoundsGlobalNorm) {
  nn::Parameter a("a", Matrix(1, 3));
  nn::Parameter b("b", Matrix(1, 4));
  nn::Adam adam({&a, &b});
  a.grad.fill(10.0);
  b.grad.fill(10.0);
  const double before = adam.clip_gradients(1.0);
  EXPECT_GT(before, 1.0);
  double norm2 = tensor::squared_norm(a.grad) + tensor::squared_norm(b.grad);
  EXPECT_NEAR(std::sqrt(norm2), 1.0, 1e-9);
}

TEST(DenseAdam, LearnsLinearMap) {
  Rng rng(1);
  Dense layer(3, 1, rng);
  nn::AdamConfig cfg;
  cfg.lr = 0.02;
  nn::Adam adam(layer.params(), cfg);
  // Target: y = 2x0 - x1 + 0.5x2 + 1.
  for (int step = 0; step < 800; ++step) {
    const Matrix x = Matrix::randn(16, 3, rng);
    Matrix y = layer.forward(x);
    Matrix dy(16, 1);
    double loss = 0.0;
    for (std::size_t i = 0; i < 16; ++i) {
      const double target = 2 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2) + 1.0;
      dy(i, 0) = 2.0 * (y(i, 0) - target) / 16.0;
      loss += (y(i, 0) - target) * (y(i, 0) - target);
    }
    layer.backward(dy);
    adam.step();
    if (step == 799) {
      EXPECT_LT(loss / 16.0, 1e-3);
    }
  }
}

TEST(GaussianHead, SampleMatchesParameters) {
  Rng rng(2);
  GaussianHead::Output out;
  out.mu = Matrix(1, 1, 4.0);
  out.sigma = Matrix(1, 1, 2.0);
  util::RunningStats st;
  for (int i = 0; i < 20000; ++i) {
    st.add(GaussianHead::sample(out, rng)(0, 0));
  }
  EXPECT_NEAR(st.mean(), 4.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(GaussianHead, SigmaAlwaysPositive) {
  Rng rng(3);
  GaussianHead head(4, 1, rng);
  const Matrix h = Matrix::randn(32, 4, rng, 10.0);  // extreme inputs
  const auto out = head.forward_inference(h);
  for (double s : out.sigma.flat()) EXPECT_GT(s, 0.0);
}

TEST(GaussianHead, NllLowerForBetterFit) {
  Rng rng(4);
  GaussianHead::Output good, bad;
  good.mu = Matrix(8, 1, 1.0);
  good.sigma = Matrix(8, 1, 0.5);
  bad.mu = Matrix(8, 1, 5.0);
  bad.sigma = Matrix(8, 1, 0.5);
  const Matrix z(8, 1, 1.1);
  EXPECT_LT(GaussianHead::nll(good, z, {}), GaussianHead::nll(bad, z, {}));
}

TEST(GaussianHead, WeightsTiltTheLoss) {
  GaussianHead::Output out;
  out.mu = Matrix(2, 1);
  out.mu(0, 0) = 0.0;   // perfect on row 0
  out.mu(1, 0) = 10.0;  // terrible on row 1
  out.sigma = Matrix(2, 1, 1.0);
  Matrix z(2, 1, 0.0);
  const std::vector<double> weight_bad_row{1.0, 9.0};
  const std::vector<double> weight_good_row{9.0, 1.0};
  EXPECT_GT(GaussianHead::nll(out, z, weight_bad_row),
            GaussianHead::nll(out, z, weight_good_row));
}

TEST(Lstm, StatefulStepsEqualBatchForward) {
  Rng rng(5);
  nn::LstmLayer lstm(4, 6, rng);
  std::vector<Matrix> xs;
  for (int t = 0; t < 8; ++t) xs.push_back(Matrix::randn(3, 4, rng));
  const auto hs = lstm.forward(xs);
  nn::LstmState state;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const auto h = lstm.step(xs[t], state);
    for (std::size_t i = 0; i < h.size(); ++i) {
      ASSERT_NEAR(h.flat()[i], hs[t].flat()[i], 1e-12);
    }
  }
}

TEST(Serialize, RoundTripRestoresParams) {
  Rng rng(6);
  Dense a(5, 3, rng), b(5, 3, rng);
  const std::string path = "/tmp/ranknet_test_params.bin";
  nn::save_params(path, a.params());
  // b starts different...
  bool same = true;
  for (std::size_t i = 0; i < a.params().size(); ++i) {
    if (!(a.params()[i]->value == b.params()[i]->value)) same = false;
  }
  EXPECT_FALSE(same);
  nn::load_params(path, b.params());
  for (std::size_t i = 0; i < a.params().size(); ++i) {
    EXPECT_TRUE(a.params()[i]->value == b.params()[i]->value);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsWrongShape) {
  Rng rng(7);
  Dense a(5, 3, rng);
  Dense c(4, 3, rng);  // different input dim, same param names
  const std::string path = "/tmp/ranknet_test_params2.bin";
  nn::save_params(path, a.params());
  EXPECT_THROW(nn::load_params(path, c.params()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsMissingFile) {
  Rng rng(8);
  Dense a(2, 2, rng);
  EXPECT_THROW(nn::load_params("/tmp/definitely_missing_file.bin",
                               a.params()),
               std::runtime_error);
  const auto s =
      nn::try_load_params("/tmp/definitely_missing_file.bin", a.params());
  EXPECT_EQ(s.code(), ranknet::util::StatusCode::kNotFound);
}

TEST(Serialize, BitFlipAnywhereIsRejectedAndLeavesParamsUntouched) {
  Rng rng(9);
  Dense a(4, 3, rng), b(4, 3, rng);
  const std::string path = "/tmp/ranknet_test_bitflip.bin";
  nn::save_params(path, a.params());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Flip one bit in several positions across the file: header fields and
  // deep payload alike must fail checksum/structure validation.
  for (const std::size_t pos :
       {std::size_t{3}, std::size_t{9}, std::size_t{30},
        bytes.size() / 2, bytes.size() - 1}) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x10);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(damaged.data(),
                static_cast<std::streamsize>(damaged.size()));
    }
    // Snapshot b, attempt the load, verify rejection and no mutation.
    const auto before = b.params()[0]->value;
    const auto s = nn::try_load_params(path, b.params());
    EXPECT_FALSE(s.ok()) << "bit flip at " << pos << " was accepted";
    EXPECT_TRUE(b.params()[0]->value == before)
        << "failed load mutated parameters (flip at " << pos << ")";
    EXPECT_THROW(nn::load_params(path, b.params()), std::runtime_error);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedArtifactIsRejected) {
  Rng rng(10);
  Dense a(4, 3, rng);
  const std::string path = "/tmp/ranknet_test_truncated.bin";
  nn::save_params(path, a.params());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const auto s = nn::try_load_params(path, a.params());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ranknet::util::StatusCode::kCorruptData);
  std::filesystem::remove(path);
}

TEST(Serialize, LegacyV1ArtifactStillLoads) {
  // Hand-build a v1 file (bare magic, no version/size/checksum) the way the
  // pre-v2 writer did: count, then name-length/name/matrix per parameter.
  Rng rng(11);
  Dense a(3, 2, rng), b(3, 2, rng);
  const std::string path = "/tmp/ranknet_test_v1.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic_v1 = 0x524b4e45542d3031ULL;  // "RKNET-01"
    out.write(reinterpret_cast<const char*>(&magic_v1), sizeof(magic_v1));
    const std::uint64_t count = a.params().size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto* p : a.params()) {
      const std::uint64_t n = p->name.size();
      out.write(reinterpret_cast<const char*>(&n), sizeof(n));
      out.write(p->name.data(), static_cast<std::streamsize>(n));
      tensor::write_matrix(out, p->value);
    }
  }
  nn::load_params(path, b.params());
  for (std::size_t i = 0; i < a.params().size(); ++i) {
    EXPECT_TRUE(a.params()[i]->value == b.params()[i]->value);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, SavedArtifactsUseTheV2ChecksummedFormat) {
  Rng rng(12);
  Dense a(2, 2, rng);
  const std::string path = "/tmp/ranknet_test_v2magic.bin";
  nn::save_params(path, a.params());
  std::ifstream in(path, std::ios::binary);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  EXPECT_EQ(magic, 0x524b4e54763253ULL);  // v2 magic
  EXPECT_EQ(version, 2u);
  std::filesystem::remove(path);
}

TEST(Serialize, V3ArtifactLoadsSameParamBytesAsV2) {
  // v3 files carry a calibration section after the parameters. The loader
  // validates and discards it, so a v3 file and the v2 file built from the
  // same parameters must install identical bytes.
  Rng rng(14);
  Dense a(4, 3, rng);
  const std::string v2 = test_support::unique_temp_path("nn_v2.bin");
  const std::string v3 = test_support::unique_temp_path("nn_v3.bin");
  nn::save_params(v2, a.params());
  test_support::write_v3_artifact(
      v3, a.params(), {{"dense.weight", 4.25}, {"head.mu.weight", 1.5}});

  Dense from_v2(4, 3, rng), from_v3(4, 3, rng);
  ASSERT_TRUE(nn::try_load_params(v2, from_v2.params()).ok());
  ASSERT_TRUE(nn::try_load_params(v3, from_v3.params()).ok());
  for (std::size_t i = 0; i < a.params().size(); ++i) {
    const Matrix& want = a.params()[i]->value;
    const Matrix& got2 = from_v2.params()[i]->value;
    const Matrix& got3 = from_v3.params()[i]->value;
    ASSERT_TRUE(got2.same_shape(want));
    ASSERT_TRUE(got3.same_shape(want));
    const std::size_t bytes = want.size() * sizeof(double);
    EXPECT_EQ(std::memcmp(got2.data(), want.data(), bytes), 0);
    EXPECT_EQ(std::memcmp(got3.data(), got2.data(), bytes), 0);
  }
  std::filesystem::remove(v2);
  std::filesystem::remove(v3);
}

TEST(Serialize, GarbageFileIsStatusNotCrash) {
  const std::string path = "/tmp/ranknet_test_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model artifact at all";
  }
  Rng rng(13);
  Dense a(2, 2, rng);
  const auto s = nn::try_load_params(path, a.params());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ranknet::util::StatusCode::kCorruptData);
  std::filesystem::remove(path);
}

}  // namespace
