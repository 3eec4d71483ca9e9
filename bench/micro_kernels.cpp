// Micro-benchmarks (google-benchmark) for the compute kernels underneath
// RankNet training and inference: GEMM at LSTM-relevant shapes, the
// pointwise gate kernels, a full LSTM cell step (training path and fused
// inference session), the dense/Gaussian head, one training step, and the
// Algorithm-2 sampling rollout.
//
// Every kernel-level benchmark runs once per CPU-supported dispatch variant
// (tensor/simd_kernels.hpp) under names like `BM_GemmLstmGates<avx2>/256`,
// so the JSON output captures ns/op per kernel x variant x shape. The
// scalar rows double as the regression baseline for
// tests/check_bench_regression.py.
//
// Output: besides the console table, every run writes machine-readable
// results to BENCH_kernels.json (google-benchmark JSON; pass your own
// --benchmark_out to override). Each benchmark attaches flops/step,
// kernel_calls/step and ws_allocs/step counters so the JSON captures op
// counts and allocation behaviour next to ns/step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/ar_model.hpp"
#include "nn/inference.hpp"
#include "nn/lstm.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"
#include "tensor/opcount.hpp"
#include "tensor/simd_kernels.hpp"
#include "tensor/workspace.hpp"

namespace {

using namespace ranknet;
using tensor::Matrix;
namespace tk = tensor::kernels;

/// Snapshot global op counters and the "workspace.block_allocs" registry
/// counter around the timed loop and attach per-iteration deltas as custom
/// counters (flows into the JSON output).
class StepAccounting {
 public:
  StepAccounting()
      : ops_before_(tensor::OpCounters::instance().total()),
        ws_allocs_before_(ws_allocs_.value()) {}

  void finish(benchmark::State& state) const {
    const auto ops = tensor::OpCounters::instance().total();
    const double steps =
        std::max<double>(1.0, static_cast<double>(state.iterations()));
    state.counters["flops/step"] =
        static_cast<double>(ops.flops - ops_before_.flops) / steps;
    state.counters["kernel_calls/step"] =
        static_cast<double>(ops.calls - ops_before_.calls) / steps;
    state.counters["ws_allocs/step"] =
        static_cast<double>(ws_allocs_.value() - ws_allocs_before_) / steps;
  }

 private:
  const obs::Counter& ws_allocs_ =
      obs::Registry::instance().counter("workspace.block_allocs");
  tensor::KernelStats ops_before_;
  std::uint64_t ws_allocs_before_;
};

/// Pin a dispatch variant for the duration of one benchmark run.
void use_variant(tk::Variant v) {
  const auto st = tk::set_variant(v);
  if (!st.ok()) throw std::runtime_error(st.to_string());
}

void BM_GemmLstmGates(benchmark::State& state, tk::Variant variant) {
  use_variant(variant);
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const Matrix x = Matrix::randn(batch, 53, rng);
  const Matrix w = Matrix::randn(53, 160, rng);
  Matrix out(batch, 160);
  for (auto _ : state) {
    tensor::gemm(1.0, x, false, w, false, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch));
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * batch * 53 * 160,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_Gemv(benchmark::State& state, tk::Variant variant) {
  // n == 1 GEMM — the Gaussian-head projection shape, routed to the
  // dedicated GEMV path under avx2.
  use_variant(variant);
  const auto rows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  const Matrix x = Matrix::randn(rows, 40, rng);
  const Matrix w = Matrix::randn(40, 1, rng);
  Matrix out(rows, 1);
  for (auto _ : state) {
    tensor::gemm(1.0, x, false, w, false, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}

void BM_SigmoidKernel(benchmark::State& state, tk::Variant variant) {
  use_variant(variant);
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  Matrix m = Matrix::randn(n, 160, rng);
  for (auto _ : state) {
    Matrix copy = m;
    tensor::sigmoid_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * 160));
}

void BM_LstmCellStep(benchmark::State& state, tk::Variant variant) {
  use_variant(variant);
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  nn::LstmLayer lstm(53, 40, rng);
  const Matrix x = Matrix::randn(batch, 53, rng);
  nn::LstmState lstm_state(batch, 40);
  StepAccounting acct;
  for (auto _ : state) {
    auto h = lstm.step(x, lstm_state);
    benchmark::DoNotOptimize(h.data());
  }
  acct.finish(state);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch));
}

void BM_FusedLstmCellStep(benchmark::State& state, tk::Variant variant) {
  // Inference-session counterpart of BM_LstmCellStep: the same gate GEMM
  // pair over the layer's weights in place and arena storage, plus the
  // fused gate epilogue (avx2), zero heap allocations once warm.
  use_variant(variant);
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  nn::LstmLayer lstm(53, 40, rng);
  const Matrix x = Matrix::randn(batch, 53, rng);
  tensor::Workspace ws;
  ws.begin();
  nn::LstmInferenceSession session(lstm, batch, ws);
  session.reset_state();
  session.set_input(x);
  StepAccounting acct;
  for (auto _ : state) {
    session.step();
    benchmark::DoNotOptimize(session.h().data());
  }
  acct.finish(state);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch));
}

void BM_DenseForward(benchmark::State& state, tk::Variant variant) {
  use_variant(variant);
  const auto rows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  nn::Dense dense(40, 40, rng, nn::Activation::kTanh, "bench");
  const Matrix x = Matrix::randn(rows, 40, rng);
  for (auto _ : state) {
    auto y = dense.forward_inference(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}

void BM_GaussianHead(benchmark::State& state, tk::Variant variant) {
  use_variant(variant);
  const auto rows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  nn::GaussianHead head(40, 1, rng, "bench");
  const Matrix h = Matrix::randn(rows, 40, rng);
  for (auto _ : state) {
    auto out = head.forward_inference(h);
    benchmark::DoNotOptimize(out.mu.data());
    benchmark::DoNotOptimize(out.sigma.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rows));
}

core::SeqModelConfig bench_model_config() {
  core::SeqModelConfig cfg;
  cfg.cov_dim = 9;
  cfg.embed_dim = 4;
  cfg.vocab = 40;
  return cfg;
}

std::vector<features::SeqExample> bench_windows(std::size_t count,
                                                std::size_t window) {
  util::Rng rng(4);
  std::vector<features::SeqExample> out(count);
  for (auto& ex : out) {
    ex.car_index = static_cast<int>(rng.uniform_int(0, 39));
    ex.target.resize(window);
    ex.covariates.assign(window, std::vector<double>(9));
    for (std::size_t t = 0; t < window; ++t) {
      ex.target[t] = rng.uniform(1, 33);
      for (auto& c : ex.covariates[t]) c = rng.uniform(0, 1);
    }
  }
  return out;
}

void BM_TrainStep(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  core::LstmSeqModel model(bench_model_config());
  model.set_scaler(features::StandardScaler(17.0, 9.0));
  const auto windows = bench_windows(batch_size, 62);
  std::vector<const features::SeqExample*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  const auto batch = model.make_batch(ptrs, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step(batch));
    model.zero_grad();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(batch_size));
}
BENCHMARK(BM_TrainStep)->Arg(32)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SamplingRollout(benchmark::State& state, tk::Variant variant) {
  // The fig10 forecast hot path: K samples advanced in lockstep through
  // the stacked LSTM decode + Gaussian head (Algorithm 2). us/sample in
  // the JSON is the single-thread per-sample cost the fig10 bench scales
  // over batch sizes; the scalar-vs-avx2 ratio of this row is the
  // tentpole's headline speedup.
  use_variant(variant);
  const auto rows = static_cast<std::size_t>(state.range(0));
  core::LstmSeqModel model(bench_model_config());
  model.set_scaler(features::StandardScaler(17.0, 9.0));
  util::Rng rng(5);
  core::LstmSeqModel::StackState start(2, nn::LstmState(rows, 40));
  const std::vector<double> z(rows, 10.0);
  const std::vector<double> cov_rows(2 * 9, 0.0);
  const std::vector<std::span<const double>> covs(rows, cov_rows);
  const std::vector<int> idx(rows, 0);
  StepAccounting acct;
  for (auto _ : state) {
    auto s = start;
    auto out = model.sample_forward(s, {covs, 9, z, idx}, 2, rng);
    benchmark::DoNotOptimize(out.data());
  }
  acct.finish(state);
  const double samples =
      static_cast<double>(state.iterations()) * static_cast<double>(rows) * 2;
  state.SetItemsProcessed(static_cast<long>(samples));
  state.counters["us/sample"] = benchmark::Counter(
      samples, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// Register each kernel benchmark once per CPU-supported variant, with the
/// variant baked into the name (`BM_Foo<scalar>/32`). Registration order
/// puts the variant sweeps after the macro-registered training benchmarks.
void register_variant_benchmarks() {
  for (const auto v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    if (!tk::cpu_supports(v)) continue;
    const std::string tag = std::string("<") + tk::variant_name(v) + ">";
    benchmark::RegisterBenchmark(("BM_GemmLstmGates" + tag).c_str(),
                                 BM_GemmLstmGates, v)
        ->Arg(32)->Arg(256)->Arg(3200);
    benchmark::RegisterBenchmark(("BM_Gemv" + tag).c_str(), BM_Gemv, v)
        ->Arg(32)->Arg(3200);
    benchmark::RegisterBenchmark(("BM_SigmoidKernel" + tag).c_str(),
                                 BM_SigmoidKernel, v)
        ->Arg(32)->Arg(3200);
    benchmark::RegisterBenchmark(("BM_LstmCellStep" + tag).c_str(),
                                 BM_LstmCellStep, v)
        ->Arg(32)->Arg(256)->Arg(3200);
    benchmark::RegisterBenchmark(("BM_FusedLstmCellStep" + tag).c_str(),
                                 BM_FusedLstmCellStep, v)
        ->Arg(32)->Arg(256)->Arg(3200);
    benchmark::RegisterBenchmark(("BM_DenseForward" + tag).c_str(),
                                 BM_DenseForward, v)
        ->Arg(32)->Arg(3200);
    benchmark::RegisterBenchmark(("BM_GaussianHead" + tag).c_str(),
                                 BM_GaussianHead, v)
        ->Arg(32)->Arg(3300);
    benchmark::RegisterBenchmark(("BM_SamplingRollout" + tag).c_str(),
                                 BM_SamplingRollout, v)
        ->Arg(330)->Arg(3300)->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

// Custom main: default --benchmark_out to BENCH_kernels.json so every run
// leaves a machine-readable record, while explicit flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  register_variant_benchmarks();
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
