// Training-efficiency study substrate (paper Section IV-J, Figs. 10-12).
//
// The CPU series is *measured*: a RankNet-sized LSTM training step is run
// at each batch size with kernel-level instrumentation (tensor::OpCounters)
// recording calls / flops / bytes / walltime per kernel class.
//
// The GPU / GPU-cuDNN / NEC VE series are *modeled*: an analytic device
// model (peak flop rate, memory bandwidth, per-call offload overhead,
// fusion factors for cuDNN) is applied to the same measured kernel
// workload. This reproduces the paper's qualitative findings — large batch
// amortizes per-call overhead and raises arithmetic intensity, offload pays
// only once kernels are big enough — without the hardware. Parameters are
// documented in DESIGN.md; they come from the paper's Table VIII devices.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tensor/opcount.hpp"

namespace ranknet::core {

struct KernelClassStats {
  std::uint64_t calls = 0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  double cpu_seconds = 0.0;
};

/// Per-kernel-class workload of one training step.
struct Workload {
  std::array<KernelClassStats, static_cast<std::size_t>(
                                   tensor::Kernel::kCount)>
      per_kernel{};
  std::size_t batch = 0;
  std::size_t samples = 0;  // batch (samples processed per step)
  double wall_seconds = 0.0;

  const KernelClassStats& kernel(tensor::Kernel k) const {
    return per_kernel[static_cast<std::size_t>(k)];
  }
  double cpu_us_per_sample() const {
    return samples == 0 ? 0.0
                        : wall_seconds * 1e6 / static_cast<double>(samples);
  }
};

/// Run `reps` instrumented training steps of a RankNet-sized LSTM
/// (2x40 hidden, encoder 60 / decoder 2) on synthetic data and return the
/// averaged per-step workload with CPU timings.
Workload measure_ranknet_workload(std::size_t batch_size, int reps = 3);

/// Analytic accelerator description.
struct DeviceSpec {
  std::string name;
  double peak_gflops = 50.0;      // dense-kernel (MatMul) peak
  double scalar_gflops = 5.0;     // pointwise-op peak
  double mem_bw_gbs = 50.0;       // memory bandwidth
  double overhead_us_per_call = 0.0;  // kernel launch / offload overhead
  double matmul_call_factor = 1.0;    // cuDNN fusion: fraction of calls left
  double pointwise_call_factor = 1.0;
  bool offload = false;  // hybrid: host runs what the device doesn't
};

/// Paper Table VIII devices (modeled).
DeviceSpec gpu_spec();
DeviceSpec gpu_cudnn_spec();
DeviceSpec ve_spec();

/// Predicted µs/sample of the workload on a modeled device.
double modeled_us_per_sample(const Workload& w, const DeviceSpec& spec);

/// Fig. 12 breakdown: fraction of walltime per category for a hybrid
/// host+device system (offload decided per kernel class by profitability).
struct HybridBreakdown {
  double matmul_mul_host = 0.0, matmul_mul_dev = 0.0;
  double pointwise_host = 0.0, pointwise_dev = 0.0;
  double other_host = 0.0, other_dev = 0.0;
  double data_move = 0.0;
  /// Fraction of the step's FLOPs executed on the accelerator (the paper's
  /// "work load offloaded").
  double offloaded_flop_fraction = 0.0;
  /// Total hybrid step time (seconds).
  double hybrid_seconds = 0.0;
  /// Fraction of hybrid walltime spent on the accelerator.
  double offloaded_fraction() const {
    return matmul_mul_dev + pointwise_dev + other_dev;
  }
};
HybridBreakdown hybrid_breakdown(const Workload& w, const DeviceSpec& spec);

/// Measured CPU roofline parameters of this machine (Fig. 11 ceilings).
struct CpuRoofline {
  double peak_gflops = 0.0;    // dense FMA peak (measured small dgemm)
  double scalar_gflops = 0.0;  // scalar add peak
  double dram_bw_gbs = 0.0;    // streaming triad bandwidth
};
CpuRoofline measure_cpu_roofline();

}  // namespace ranknet::core
