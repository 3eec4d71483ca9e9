// Per-thread bump-allocated scratch memory for the inference runtime.
//
// A Workspace is a chunked arena of doubles. take() bump-allocates a
// MatrixView; begin() starts a new epoch, rewinding the cursor so the same
// blocks are reused. Exhausting the current blocks allocates a fresh block
// (never reallocating existing ones, so outstanding views stay valid within
// an epoch); after the first few epochs at a given problem size the arena
// reaches steady state and take() costs a pointer bump — zero heap
// allocations per decode step.
//
// Lifetime rules:
//   * Views returned by take() are valid until the next begin() on the same
//     workspace. begin() invalidates every outstanding view.
//   * Exactly one function owns an epoch at a time: a function that calls
//     begin() must not call another begin()-owning function while it still
//     holds views (sessions therefore never call begin(); only top-level
//     entry points such as sample_forward do).
//   * Workspaces are not thread-safe; use thread_local_instance() so every
//     worker thread of the parallel engine owns its own arena.
//
// All workspaces book into the process-wide obs::Registry ("workspace.*":
// epochs, reused_epochs, takes, block_allocs, bytes_reserved and the
// high_water_bytes gauge; one relaxed atomic per event) so tests and benches
// can assert the steady-state zero-allocation property by name and a
// metrics export covers allocator health next to the engine counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/view.hpp"

namespace ranknet::tensor {

class Workspace {
 public:
  /// `initial_doubles` pre-reserves one block (0 = allocate lazily).
  explicit Workspace(std::size_t initial_doubles = 0);

  /// Start a new epoch: rewind the bump cursor over the existing blocks.
  /// Invalidates every view handed out since the previous begin().
  void begin();

  /// Bump-allocate an uninitialized (rows x cols) view whose storage starts
  /// on a 64-byte boundary (cache-line aligned, friendly to the vectorized
  /// kernels). The kernels the runtime feeds these into fully overwrite
  /// their output (gemm beta=0, copies) before any element is read.
  MatrixView take(std::size_t rows, std::size_t cols);
  /// As take(), but zero-filled (for accumulation targets).
  MatrixView take_zeroed(std::size_t rows, std::size_t cols);
  /// Bump-allocate a raw span of n doubles (uninitialized).
  std::span<double> take_span(std::size_t n);
  /// Bump-allocate a raw span of n size_t indices (uninitialized), aliased
  /// over double storage (both 8 bytes, 64-byte-aligned start). Used by the
  /// decode-tree expansion maps (branch-of-row, state row sources) so the
  /// per-forecast hot path stays heap-free once the arena is warm.
  std::span<std::size_t> take_indices(std::size_t n);

  /// Doubles handed out since the last begin().
  std::size_t doubles_in_use() const { return in_use_; }
  /// Heap blocks this workspace has allocated over its lifetime.
  std::size_t block_allocs() const { return block_allocs_; }
  /// Total capacity in doubles across all blocks.
  std::size_t capacity() const;

  /// One workspace per thread: the parallel engine's workers each get their
  /// own arena, preserving the partition-independence of results (scratch
  /// memory never crosses threads).
  static Workspace& thread_local_instance();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

 private:
  struct Block {
    std::vector<double> data;
    std::size_t used = 0;
  };

  double* bump(std::size_t n);

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;        // block currently bumping
  std::size_t in_use_ = 0;     // doubles handed out this epoch
  std::size_t block_allocs_ = 0;
  bool grew_this_epoch_ = false;
};

}  // namespace ranknet::tensor
