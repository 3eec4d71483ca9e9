// Fig. 11 — roofline chart of RankNet training kernels on this CPU.
// Prints the measured machine ceilings (dense FMA peak, scalar add peak,
// DRAM bandwidth) and, for each dispatched kernel variant (scalar / avx2)
// and batch size 32 vs 3200, the (arithmetic intensity, achieved Gflop/s)
// position of each kernel class — MatMul, Mul, Add, Sigmoid, Tanh —
// measured inside real training steps. The variant axis shows how far the
// hand-vectorized GEMM moves the MatMul dot toward the FMA ceiling.
#include <cstdio>

#include "core/device_model.hpp"
#include "tensor/simd_kernels.hpp"

int main() {
  using namespace ranknet;
  const auto roof = core::measure_cpu_roofline();
  std::printf("Fig. 11 — roofline of RankNet training kernels (CPU)\n");
  std::printf("machine ceilings (measured):\n");
  std::printf("  dense FMA peak : %8.2f Gflop/s\n", roof.peak_gflops);
  std::printf("  scalar add peak: %8.2f Gflop/s\n", roof.scalar_gflops);
  std::printf("  DRAM bandwidth : %8.2f GB/s\n", roof.dram_bw_gbs);
  std::printf("  ridge point    : %8.4f flop/byte\n\n",
              roof.peak_gflops / roof.dram_bw_gbs);

  const tensor::Kernel kernels[] = {
      tensor::Kernel::kMatMul, tensor::Kernel::kMul, tensor::Kernel::kAdd,
      tensor::Kernel::kSigmoid, tensor::Kernel::kTanh};

  namespace tk = tensor::kernels;
  for (const auto variant : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    if (!tk::cpu_supports(variant)) {
      std::printf("kernel variant %s: not supported on this CPU, skipped\n\n",
                  tk::variant_name(variant));
      continue;
    }
    (void)tk::set_variant(variant);
    for (const std::size_t batch : {32UL, 3200UL}) {
      const auto w =
          core::measure_ranknet_workload(batch, batch > 1000 ? 1 : 3);
      std::printf(
          "kernel variant %s, batch size %zu (one training step, %.1f "
          "µs/sample):\n",
          tk::variant_name(variant), batch, w.cpu_us_per_sample());
      std::printf("  %-8s %10s %14s %12s %12s\n", "kernel", "calls",
                  "AI(flop/byte)", "Gflop/s", "roof-bound");
      for (const auto k : kernels) {
        const auto& s = w.kernel(k);
        if (s.calls == 0) continue;
        const double ai = static_cast<double>(s.flops) /
                          static_cast<double>(s.bytes);
        const double gflops =
            s.cpu_seconds > 0 ? s.flops / s.cpu_seconds * 1e-9 : 0.0;
        const double mem_roof = ai * roof.dram_bw_gbs;
        const bool is_matmul = k == tensor::Kernel::kMatMul;
        const double ceiling = std::min(
            is_matmul ? roof.peak_gflops : roof.scalar_gflops, mem_roof);
        std::printf("  %-8s %10llu %14.4f %12.3f %12.3f\n",
                    tensor::kernel_name(k),
                    static_cast<unsigned long long>(s.calls), ai, gflops,
                    ceiling);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  std::printf("(paper: larger batch moves the dots up — mostly higher "
              "Gflop/s, some with higher AI — which is why large-batch "
              "training is faster)\n");
  return 0;
}
