// Categorical embedding (paper: CarId embedding, Table I transformations).
#pragma once

#include <span>
#include <vector>

#include "nn/param.hpp"
#include "util/rng.hpp"

namespace ranknet::nn {

class Embedding : public Layer {
 public:
  Embedding(std::size_t vocab, std::size_t dim, util::Rng& rng,
            std::string name = "embedding");

  /// Look up one row per index; caches indices for backward.
  tensor::Matrix forward(const std::vector<int>& indices);
  tensor::Matrix forward_inference(std::span<const int> indices) const;

  /// Scatter-add gradient rows back into the table.
  void backward(const tensor::Matrix& dy);

  std::vector<Parameter*> params() override { return {&table_}; }
  std::size_t dim() const { return table_.value.cols(); }
  std::size_t vocab() const { return table_.value.rows(); }

  /// Read access for the inference runtime (borrowed, never copied).
  const tensor::Matrix& table() const { return table_.value; }

 private:
  Parameter table_;  // (vocab x dim)
  std::vector<int> cached_indices_;
};

}  // namespace ranknet::nn
