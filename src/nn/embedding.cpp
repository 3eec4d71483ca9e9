#include "nn/embedding.hpp"

#include <stdexcept>

namespace ranknet::nn {

Embedding::Embedding(std::size_t vocab, std::size_t dim, util::Rng& rng,
                     std::string name)
    : table_(name + ".table", tensor::Matrix::randn(vocab, dim, rng, 0.1)) {}

tensor::Matrix Embedding::forward_inference(
    std::span<const int> indices) const {
  tensor::Matrix out(indices.size(), dim());
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const auto idx = static_cast<std::size_t>(indices[r]);
    if (idx >= vocab()) {
      throw std::out_of_range("Embedding: index out of range");
    }
    for (std::size_t c = 0; c < dim(); ++c) out(r, c) = table_.value(idx, c);
  }
  return out;
}

tensor::Matrix Embedding::forward(const std::vector<int>& indices) {
  cached_indices_ = indices;
  return forward_inference(indices);
}

void Embedding::backward(const tensor::Matrix& dy) {
  if (dy.rows() != cached_indices_.size() || dy.cols() != dim()) {
    throw std::invalid_argument("Embedding::backward: shape mismatch");
  }
  for (std::size_t r = 0; r < cached_indices_.size(); ++r) {
    const auto idx = static_cast<std::size_t>(cached_indices_[r]);
    for (std::size_t c = 0; c < dim(); ++c) table_.grad(idx, c) += dy(r, c);
  }
}

}  // namespace ranknet::nn
