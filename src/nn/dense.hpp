// Fully-connected layer with optional fused activation and manual backprop.
#pragma once

#include "nn/param.hpp"
#include "tensor/matrix.hpp"
#include "tensor/simd_kernels.hpp"
#include "util/rng.hpp"

namespace ranknet::nn {

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

/// nn::Activation → the tensor layer's dispatched activation code.
tensor::kernels::DenseAct to_dense_act(Activation a);

class Dense : public Layer {
 public:
  Dense(std::size_t input_dim, std::size_t output_dim, util::Rng& rng,
        Activation activation = Activation::kNone,
        std::string name = "dense");

  /// Forward pass; caches input and activation output for backward.
  tensor::Matrix forward(const tensor::Matrix& x);

  /// Forward without caching (inference path).
  tensor::Matrix forward_inference(const tensor::Matrix& x) const;

  /// Backward: accumulates weight/bias grads, returns dLoss/dInput.
  tensor::Matrix backward(const tensor::Matrix& dy);

  std::vector<Parameter*> params() override { return {&weight_, &bias_}; }

  std::size_t input_dim() const { return weight_.value.rows(); }
  std::size_t output_dim() const { return weight_.value.cols(); }

  /// Read access for the inference runtime (borrowed, never copied).
  const tensor::Matrix& weight() const { return weight_.value; }
  const tensor::Matrix& bias() const { return bias_.value; }
  Activation activation() const { return activation_; }

 private:
  tensor::Matrix apply(const tensor::Matrix& x, tensor::Matrix* pre) const;

  Parameter weight_;  // (in x out)
  Parameter bias_;    // (1 x out)
  Activation activation_;
  tensor::Matrix cached_x_;
  tensor::Matrix cached_y_;  // post-activation (for activation backward)
};

}  // namespace ranknet::nn
