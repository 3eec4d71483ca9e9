#include "core/device_model.hpp"

#include <algorithm>
#include <cmath>

#include "core/ar_model.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ranknet::core {

namespace {

using tensor::Kernel;

bool is_matmul_mul(Kernel k) {
  return k == Kernel::kMatMul || k == Kernel::kMul;
}
bool is_pointwise(Kernel k) {
  return k == Kernel::kAdd || k == Kernel::kSigmoid || k == Kernel::kTanh ||
         k == Kernel::kSoftmax;
}

/// Device time for one kernel class: roofline execution time plus
/// per-call overhead, with cuDNN-style call-count reduction.
double class_device_seconds(const KernelClassStats& s, Kernel k,
                            const DeviceSpec& spec) {
  if (s.calls == 0) return 0.0;
  const double peak =
      is_matmul_mul(k) ? spec.peak_gflops : spec.scalar_gflops;
  const double compute = static_cast<double>(s.flops) / (peak * 1e9);
  const double memory =
      static_cast<double>(s.bytes) / (spec.mem_bw_gbs * 1e9);
  const double call_factor = k == Kernel::kMatMul
                                 ? spec.matmul_call_factor
                                 : (is_pointwise(k) || k == Kernel::kMul
                                        ? spec.pointwise_call_factor
                                        : 1.0);
  const double calls = static_cast<double>(s.calls) * call_factor;
  return std::max(compute, memory) + calls * spec.overhead_us_per_call * 1e-6;
}

}  // namespace

Workload measure_ranknet_workload(std::size_t batch_size, int reps) {
  // RankNet-sized network on synthetic data (the real feature pipeline is
  // irrelevant for kernel accounting).
  SeqModelConfig config;
  config.cov_dim = 9;
  config.embed_dim = 4;
  config.vocab = 40;
  LstmSeqModel model(config);

  const std::size_t window = 62;  // encoder 60 + decoder 2
  util::Rng rng(42);
  std::vector<features::SeqExample> examples(batch_size);
  for (auto& ex : examples) {
    ex.car_index = static_cast<int>(rng.uniform_int(0, 39));
    ex.target.resize(window);
    ex.covariates.assign(window, std::vector<double>(config.cov_dim));
    for (std::size_t t = 0; t < window; ++t) {
      ex.target[t] = rng.uniform(1.0, 33.0);
      for (auto& c : ex.covariates[t]) c = rng.uniform(0.0, 1.0);
    }
  }
  std::vector<const features::SeqExample*> ptrs;
  for (const auto& ex : examples) ptrs.push_back(&ex);
  const auto batch = model.make_batch(ptrs, 2);

  auto& counters = tensor::OpCounters::instance();
  // Warm-up step (allocations, caches).
  model.train_step(batch);
  model.zero_grad();

  counters.reset();
  counters.set_profiling(true);
  util::Timer timer;
  for (int r = 0; r < reps; ++r) {
    model.train_step(batch);
    model.zero_grad();
  }
  const double wall = timer.seconds() / reps;
  counters.set_profiling(false);

  Workload w;
  w.batch = batch_size;
  w.samples = batch_size;
  w.wall_seconds = wall;
  for (std::size_t k = 0; k < w.per_kernel.size(); ++k) {
    const auto& s = counters.stats(static_cast<Kernel>(k));
    w.per_kernel[k].calls = s.calls / static_cast<std::uint64_t>(reps);
    w.per_kernel[k].flops = s.flops / static_cast<std::uint64_t>(reps);
    w.per_kernel[k].bytes = s.bytes / static_cast<std::uint64_t>(reps);
    w.per_kernel[k].cpu_seconds = s.seconds / reps;
  }
  counters.reset();
  return w;
}

DeviceSpec gpu_spec() {
  DeviceSpec s;
  s.name = "GPU";  // V100-SXM2: op-by-op LSTM implementation
  s.peak_gflops = 7800.0;
  s.scalar_gflops = 1200.0;
  s.mem_bw_gbs = 900.0;
  s.overhead_us_per_call = 9.0;  // kernel launch + host driver latency
  return s;
}

DeviceSpec gpu_cudnn_spec() {
  DeviceSpec s = gpu_spec();
  s.name = "GPU cuDNN";
  // Paper profiling: cuDNN leaves 39% of MatMul calls and 1% of the scalar
  // (product/sum/logistic/tanh) calls via fusion and streamed GEMMs.
  s.matmul_call_factor = 0.39;
  s.pointwise_call_factor = 0.01;
  s.overhead_us_per_call = 6.0;
  return s;
}

DeviceSpec ve_spec() {
  DeviceSpec s;
  s.name = "VE";  // NEC SX-Aurora Vector Engine
  s.peak_gflops = 2450.0;
  s.scalar_gflops = 300.0;
  s.mem_bw_gbs = 1200.0;
  s.overhead_us_per_call = 7.0;
  s.offload = true;
  return s;
}

double modeled_us_per_sample(const Workload& w, const DeviceSpec& spec) {
  if (spec.offload) {
    // Hybrid host+device execution with the size-threshold offload rule.
    const auto b = hybrid_breakdown(w, spec);
    return w.samples == 0
               ? 0.0
               : b.hybrid_seconds * 1e6 / static_cast<double>(w.samples);
  }
  double total = 0.0;
  for (std::size_t k = 0; k < w.per_kernel.size(); ++k) {
    const auto kernel = static_cast<Kernel>(k);
    const auto& s = w.per_kernel[k];
    if (s.calls == 0) continue;
    total += class_device_seconds(s, kernel, spec);
  }
  return w.samples == 0 ? 0.0
                        : total * 1e6 / static_cast<double>(w.samples);
}

HybridBreakdown hybrid_breakdown(const Workload& w, const DeviceSpec& spec) {
  // Offload rule modeled after NEC's TensorFlow-VE backend: a kernel class
  // moves to the accelerator only when its per-call operand set is large
  // enough for vector execution to amortize the offload overhead. Weights
  // stay resident on the device, so the PCIe transfer covers only a
  // fraction of the operand bytes (activations in/out).
  constexpr double kOffloadElemsPerCall = 1.0e5;  // operand elements
  constexpr double kTransferFraction = 0.05;      // non-resident bytes
  constexpr double kPcieGbs = 12.0;

  HybridBreakdown b;
  double total = 0.0;
  std::array<double, static_cast<std::size_t>(Kernel::kCount)> seconds{};
  std::array<bool, static_cast<std::size_t>(Kernel::kCount)> on_device{};
  double data_move = 0.0;
  double flops_total = 0.0, flops_dev = 0.0;
  for (std::size_t k = 0; k < w.per_kernel.size(); ++k) {
    const auto kernel = static_cast<Kernel>(k);
    const auto& s = w.per_kernel[k];
    if (s.calls == 0) continue;
    flops_total += static_cast<double>(s.flops);
    const double elems_per_call = static_cast<double>(s.bytes) / 8.0 /
                                  static_cast<double>(s.calls);
    const bool offloadable =
        (is_matmul_mul(kernel) || is_pointwise(kernel)) &&
        elems_per_call >= kOffloadElemsPerCall;
    if (offloadable) {
      on_device[k] = true;
      seconds[k] = class_device_seconds(s, kernel, spec);
      data_move += kTransferFraction * static_cast<double>(s.bytes) /
                   (kPcieGbs * 1e9);
      flops_dev += static_cast<double>(s.flops);
    } else {
      seconds[k] = s.cpu_seconds;
    }
    total += seconds[k];
  }
  total += data_move;
  if (total <= 0.0) return b;
  for (std::size_t k = 0; k < seconds.size(); ++k) {
    const auto kernel = static_cast<Kernel>(k);
    const double frac = seconds[k] / total;
    if (is_matmul_mul(kernel)) {
      (on_device[k] ? b.matmul_mul_dev : b.matmul_mul_host) += frac;
    } else if (is_pointwise(kernel)) {
      (on_device[k] ? b.pointwise_dev : b.pointwise_host) += frac;
    } else {
      (on_device[k] ? b.other_dev : b.other_host) += frac;
    }
  }
  b.data_move = data_move / total;
  b.offloaded_flop_fraction =
      flops_total > 0.0 ? flops_dev / flops_total : 0.0;
  b.hybrid_seconds = total;
  return b;
}

CpuRoofline measure_cpu_roofline() {
  CpuRoofline r;
  util::Rng rng(7);
  // Dense peak: repeated small GEMM that fits in cache.
  {
    tensor::Matrix a = tensor::Matrix::randn(128, 128, rng);
    tensor::Matrix b = tensor::Matrix::randn(128, 128, rng);
    tensor::Matrix c(128, 128);
    tensor::gemm(1.0, a, false, b, false, 0.0, c);  // warm-up
    util::Timer t;
    const int reps = 40;
    for (int i = 0; i < reps; ++i) {
      tensor::gemm(1.0, a, false, b, false, 0.0, c);
    }
    r.peak_gflops = 2.0 * 128.0 * 128.0 * 128.0 * reps / t.seconds() * 1e-9;
  }
  // Scalar add peak: dependent scalar chain is pessimal; use simple loop.
  {
    std::vector<double> x(4096, 1.0);
    double acc = 0.0;
    util::Timer t;
    const int reps = 2000;
    for (int i = 0; i < reps; ++i) {
      for (double v : x) acc += v;
    }
    r.scalar_gflops = 4096.0 * reps / t.seconds() * 1e-9;
    if (acc < 0) r.scalar_gflops = 0;  // keep `acc` alive
  }
  // DRAM bandwidth: triad over a buffer much larger than L3.
  {
    const std::size_t n = 1 << 24;  // 128 MiB per array (doubles)
    std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 0.0);
    util::Timer t;
    const int reps = 3;
    for (int i = 0; i < reps; ++i) {
      for (std::size_t j = 0; j < n; ++j) c[j] = a[j] + 0.5 * b[j];
    }
    r.dram_bw_gbs =
        3.0 * static_cast<double>(n) * 8.0 * reps / t.seconds() * 1e-9;
  }
  return r;
}

}  // namespace ranknet::core
