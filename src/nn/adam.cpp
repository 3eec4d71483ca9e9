#include "nn/adam.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace ranknet::nn {

Adam::Adam(std::vector<Parameter*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

double Adam::clip_gradients(double max_norm) {
  double total = 0.0;
  for (const auto* p : params_) total += tensor::squared_norm(p->grad);
  const double norm = std::sqrt(total);
  if (max_norm > 0.0 && norm > max_norm) {
    const double scale = max_norm / (norm + 1e-12);
    for (auto* p : params_) tensor::scale_inplace(p->grad, scale);
  }
  return norm;
}

void Adam::step() {
  if (config_.clip_norm > 0.0) clip_gradients(config_.clip_norm);
  ++t_;
  const double bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = *params_[i];
    auto* value = p.value.data();
    auto* grad = p.grad.data();
    auto* m = m_[i].data();
    auto* v = v_[i].data();
    const std::size_t n = p.value.size();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = config_.beta1 * m[j] + (1.0 - config_.beta1) * grad[j];
      v[j] = config_.beta2 * v[j] + (1.0 - config_.beta2) * grad[j] * grad[j];
      const double mhat = m[j] / bias1;
      const double vhat = v[j] / bias2;
      value[j] -= config_.lr * mhat / (std::sqrt(vhat) + config_.eps);
      grad[j] = 0.0;
    }
  }
}

}  // namespace ranknet::nn
