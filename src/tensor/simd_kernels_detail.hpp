// Internal: the raw-pointer kernel implementations behind the dispatch
// tables. kernels.cpp defines the scalar reference loops (shared with the
// pre-dispatch code so the scalar variant stays byte-frozen),
// simd_kernels_avx2.cpp defines the AVX2+FMA variants, and
// simd_kernels.cpp assembles them into kernels::Dispatch tables. Not part
// of the public tensor API.
#pragma once

#include <cstddef>

#include "tensor/simd_kernels.hpp"

namespace ranknet::tensor::detail {

// Scalar reference loops (kernels.cpp). These are the exact inner loops the
// repo shipped before runtime dispatch existed; golden files are pinned to
// them.
void gemm_nn_scalar(double alpha, const double* a, const double* b,
                    double beta, double* c, std::size_t m, std::size_t k,
                    std::size_t n);
void sigmoid_scalar(double* x, std::size_t n);
void tanh_scalar(double* x, std::size_t n);
void hadamard_scalar(const double* x, const double* y, double* o,
                     std::size_t n);
void hadamard_add_scalar(const double* x, const double* y, double* o,
                         std::size_t n);
void add_bias_rows_scalar(double* m, const double* bias, std::size_t rows,
                          std::size_t cols);

// Variant tables. scalar_table() lives in simd_kernels.cpp; avx2_table()
// lives in simd_kernels_avx2.cpp (compiled with -mavx2 -mfma; on non-x86
// targets it aliases the scalar table and cpu_supports(kAvx2) is false).
const kernels::Dispatch& scalar_table();
const kernels::Dispatch& avx2_table();

}  // namespace ranknet::tensor::detail
