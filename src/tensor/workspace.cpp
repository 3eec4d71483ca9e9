#include "tensor/workspace.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace ranknet::tensor {

namespace {
/// Smallest block the arena will allocate, in doubles (128 KiB). Keeps the
/// warm-up phase from fragmenting into many tiny blocks.
constexpr std::size_t kMinBlockDoubles = 16384;

/// Every take() starts on a 64-byte (cache-line / ymm-friendly) boundary.
constexpr std::size_t kAlignBytes = 64;
constexpr std::size_t kAlignDoubles = kAlignBytes / sizeof(double);

/// Doubles of padding needed to bring `p` up to a 64-byte boundary.
std::size_t align_pad(const double* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  return (kAlignBytes - addr % kAlignBytes) % kAlignBytes / sizeof(double);
}

/// "workspace.*" arena-health metrics, resolved once per process and shared
/// by every thread's workspace. In steady state reused_epochs == epochs and
/// block_allocs stays flat.
struct ArenaMetrics {
  obs::Counter* epochs;         // begin() calls
  obs::Counter* reused_epochs;  // epochs served without a block alloc
  obs::Counter* takes;          // take() calls
  obs::Counter* block_allocs;   // heap blocks ever allocated
  obs::Counter* bytes_reserved; // heap bytes ever allocated
  obs::Gauge* high_water_bytes; // max bytes in use in any epoch
  ArenaMetrics() {
    auto& reg = obs::Registry::instance();
    epochs = &reg.counter("workspace.epochs");
    reused_epochs = &reg.counter("workspace.reused_epochs");
    takes = &reg.counter("workspace.takes");
    block_allocs = &reg.counter("workspace.block_allocs");
    bytes_reserved = &reg.counter("workspace.bytes_reserved");
    high_water_bytes = &reg.gauge("workspace.high_water_bytes");
  }
  void record_block_alloc(std::size_t doubles) const {
    block_allocs->add(1);
    bytes_reserved->add(8 * doubles);
  }
};

const ArenaMetrics& metrics() {
  static const ArenaMetrics m;
  return m;
}
}  // namespace

Workspace::Workspace(std::size_t initial_doubles) {
  if (initial_doubles > 0) {
    blocks_.push_back(Block{std::vector<double>(initial_doubles), 0});
    ++block_allocs_;
    metrics().record_block_alloc(initial_doubles);
  }
}

void Workspace::begin() {
  const auto& m = metrics();
  m.high_water_bytes->record_max(static_cast<double>(8 * in_use_));
  m.epochs->add(1);
  if (!grew_this_epoch_) m.reused_epochs->add(1);
  for (auto& b : blocks_) b.used = 0;
  cur_ = 0;
  in_use_ = 0;
  grew_this_epoch_ = false;
}

double* Workspace::bump(std::size_t n) {
  metrics().takes->add(1);
  // Advance through existing blocks until one fits; partial blocks are
  // simply skipped (their tail stays unused this epoch).
  while (cur_ < blocks_.size()) {
    Block& b = blocks_[cur_];
    const std::size_t pad = align_pad(b.data.data() + b.used);
    if (b.data.size() - b.used >= n + pad) {
      double* p = b.data.data() + b.used + pad;
      b.used += n + pad;
      in_use_ += n + pad;
      return p;
    }
    ++cur_;
  }
  // Grow: a fresh block, never touching existing ones, so views handed out
  // earlier in this epoch remain valid. Over-reserve by one alignment unit
  // so the aligned start always fits.
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().data.size();
  const std::size_t size =
      std::max({n + kAlignDoubles - 1, 2 * last, kMinBlockDoubles});
  blocks_.push_back(Block{std::vector<double>(size), 0});
  ++block_allocs_;
  grew_this_epoch_ = true;
  metrics().record_block_alloc(size);
  Block& nb = blocks_.back();
  const std::size_t pad = align_pad(nb.data.data());
  nb.used = pad + n;
  in_use_ += pad + n;
  return nb.data.data() + pad;
}

MatrixView Workspace::take(std::size_t rows, std::size_t cols) {
  return {bump(rows * cols), rows, cols};
}

MatrixView Workspace::take_zeroed(std::size_t rows, std::size_t cols) {
  MatrixView v = take(rows, cols);
  v.set_zero();
  return v;
}

std::span<double> Workspace::take_span(std::size_t n) {
  return {bump(n), n};
}

std::span<std::size_t> Workspace::take_indices(std::size_t n) {
  static_assert(sizeof(std::size_t) == sizeof(double),
                "index spans alias double storage 1:1");
  // bump() returns 64-byte-aligned storage, which satisfies
  // alignof(std::size_t); the span is fully overwritten before any read.
  return {reinterpret_cast<std::size_t*>(bump(n)), n};
}

std::size_t Workspace::capacity() const {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.data.size();
  return total;
}

Workspace& Workspace::thread_local_instance() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace ranknet::tensor
