// Fig. 12 — operation breakdown for the CPU+VE hybrid system at batch size
// 32 vs 3200, per dispatched kernel variant (scalar / avx2). Offload per
// kernel class is decided by profitability under the VE device model
// (measured host time vs modeled device time + transfer); the printed
// percentages are shares of total step walltime. The variant axis shows
// how a faster host GEMM shrinks the profitable-to-offload fraction.
#include <cstdio>

#include "core/device_model.hpp"
#include "tensor/simd_kernels.hpp"

int main() {
  using namespace ranknet;
  namespace tk = tensor::kernels;
  const auto ve = core::ve_spec();
  std::printf("Fig. 12 — operation breakdown, CPU+VE hybrid\n");

  for (const auto variant : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    if (!tk::cpu_supports(variant)) {
      std::printf("\nkernel variant %s: not supported on this CPU, skipped\n",
                  tk::variant_name(variant));
      continue;
    }
    (void)tk::set_variant(variant);
    std::printf("\nkernel variant %s:\n", tk::variant_name(variant));
    std::printf("%-26s %12s %12s\n", "category", "batch=32", "batch=3200");

    const auto w32 = core::measure_ranknet_workload(32, 3);
    const auto w3200 = core::measure_ranknet_workload(3200, 1);
    const auto b32 = core::hybrid_breakdown(w32, ve);
    const auto b3200 = core::hybrid_breakdown(w3200, ve);

    auto row = [](const char* name, double a, double b) {
      std::printf("%-26s %11.1f%% %11.1f%%\n", name, 100.0 * a, 100.0 * b);
    };
    row("MatMul+Mul (CPU)", b32.matmul_mul_host, b3200.matmul_mul_host);
    row("Add+Sigmoid+Tanh (CPU)", b32.pointwise_host, b3200.pointwise_host);
    row("Other ops (CPU)", b32.other_host, b3200.other_host);
    row("MatMul+Mul (VE)", b32.matmul_mul_dev, b3200.matmul_mul_dev);
    row("Add+Sigmoid+Tanh (VE)", b32.pointwise_dev, b3200.pointwise_dev);
    row("Other ops (VE)", b32.other_dev, b3200.other_dev);
    row("Data movement", b32.data_move, b3200.data_move);
    std::printf("\noffloaded work (flops): %.1f%% (batch 32) vs %.1f%% "
                "(batch 3200)\n",
                100.0 * b32.offloaded_flop_fraction,
                100.0 * b3200.offloaded_flop_fraction);
    std::printf("hybrid step time: %.1f µs/sample (batch 32) vs %.1f "
                "µs/sample (batch 3200); CPU-only: %.1f vs %.1f\n",
                b32.hybrid_seconds * 1e6 / 32,
                b3200.hybrid_seconds * 1e6 / 3200, w32.cpu_us_per_sample(),
                w3200.cpu_us_per_sample());
  }
  std::printf("(paper: ~7%% offloaded at batch 32, ~35%% at batch 3200 — "
              "offload pays only once kernels are large)\n");
  return 0;
}
