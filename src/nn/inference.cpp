#include "nn/inference.hpp"

#include <stdexcept>

namespace ranknet::nn {

void DenseInferenceSession::apply(tensor::ConstMatrixView x,
                                  tensor::MatrixView y) const {
  // Same dispatched op as Dense::apply — layer and session share one
  // compiled path per variant, so their outputs are bit-identical.
  tensor::dense_forward(x, tensor::ConstMatrixView(layer_->weight()),
                        tensor::ConstMatrixView(layer_->bias()).row(0),
                        to_dense_act(layer_->activation()), y);
}

void EmbeddingInferenceSession::gather(std::span<const int> indices,
                                       tensor::MatrixView out) const {
  const tensor::Matrix& table = layer_->table();
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const int idx = indices[r];
    if (idx < 0 || static_cast<std::size_t>(idx) >= layer_->vocab()) {
      throw std::out_of_range("Embedding: index out of range");
    }
    for (std::size_t c = 0; c < table.cols(); ++c) {
      out(r, c) = table(static_cast<std::size_t>(idx), c);
    }
  }
}

void GaussianInferenceSession::forward(tensor::ConstMatrixView h,
                                       tensor::MatrixView mu,
                                       tensor::MatrixView sigma) const {
  tensor::gaussian_head_forward(
      h, tensor::ConstMatrixView(mu_.layer().weight()),
      tensor::ConstMatrixView(mu_.layer().bias()).row(0),
      tensor::ConstMatrixView(sigma_.layer().weight()),
      tensor::ConstMatrixView(sigma_.layer().bias()).row(0),
      GaussianHead::kSigmaFloor, mu, sigma);
}

void GaussianInferenceSession::sample(tensor::ConstMatrixView mu,
                                      tensor::ConstMatrixView sigma,
                                      util::Rng& rng, tensor::MatrixView out) {
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = rng.normal(mu(r, c), sigma(r, c));
    }
  }
}

void GaussianInferenceSession::sample(tensor::ConstMatrixView mu,
                                      tensor::ConstMatrixView sigma,
                                      std::span<util::Rng> row_rngs,
                                      tensor::MatrixView out) {
  if (row_rngs.size() != out.rows()) {
    throw std::invalid_argument(
        "GaussianInferenceSession::sample: one rng per row");
  }
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = row_rngs[r].normal(mu(r, c), sigma(r, c));
    }
  }
}

void GaussianInferenceSession::sample_rows(
    tensor::ConstMatrixView mu, tensor::ConstMatrixView sigma,
    std::span<const std::size_t> branch_of_row, std::span<util::Rng> row_rngs,
    tensor::MatrixView out) {
  if (row_rngs.size() != out.rows() || branch_of_row.size() != out.rows()) {
    throw std::invalid_argument(
        "GaussianInferenceSession::sample_rows: one rng and one branch row "
        "per output row");
  }
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const std::size_t b = branch_of_row[r];
    if (b >= mu.rows()) {
      throw std::out_of_range(
          "GaussianInferenceSession::sample_rows: branch row out of range");
    }
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = row_rngs[r].normal(mu(b, c), sigma(b, c));
    }
  }
}

LstmInferenceSession::LstmInferenceSession(const LstmLayer& layer,
                                           std::size_t batch,
                                           tensor::Workspace& ws)
    : layer_(&layer),
      batch_(batch),
      in_(layer.input_dim()),
      hidden_(layer.hidden_dim()) {
  bias_ = tensor::ConstMatrixView(layer.bias()).row(0);
  x_ = ws.take_zeroed(batch_, in_);
  h_ = ws.take_zeroed(batch_, hidden_);
  c_ = ws.take_zeroed(batch_, hidden_);
  scratch_.gates = ws.take(batch_, 4 * hidden_);
  scratch_.sig = ws.take(batch_, 3 * hidden_);
  scratch_.tg = ws.take(batch_, hidden_);
  scratch_.fgate = ws.take(batch_, hidden_);
  scratch_.igate = ws.take(batch_, hidden_);
  scratch_.ggate = ws.take(batch_, hidden_);
  scratch_.ogate = ws.take(batch_, hidden_);
  scratch_.tanh_c = ws.take(batch_, hidden_);
}

void LstmInferenceSession::reset_state() {
  h_.set_zero();
  c_.set_zero();
}

void LstmInferenceSession::load_state(const LstmState& state) {
  if (state.h.empty()) {
    reset_state();
    return;
  }
  if (state.h.rows() != batch_ || state.h.cols() != hidden_) {
    throw std::invalid_argument("LstmInferenceSession: state shape mismatch");
  }
  for (std::size_t i = 0; i < batch_ * hidden_; ++i) {
    h_.data()[i] = state.h.data()[i];
    c_.data()[i] = state.c.data()[i];
  }
}

void LstmInferenceSession::load_state_rows(
    const LstmInferenceSession& src,
    std::span<const std::size_t> src_row_per_dst) {
  if (src_row_per_dst.size() != batch_) {
    throw std::invalid_argument(
        "LstmInferenceSession::load_state_rows: one source row per state "
        "row");
  }
  if (src.hidden_ != hidden_) {
    throw std::invalid_argument(
        "LstmInferenceSession::load_state_rows: hidden dim mismatch");
  }
  for (std::size_t r = 0; r < batch_; ++r) {
    const std::size_t s = src_row_per_dst[r];
    if (s >= src.batch_) {
      throw std::out_of_range(
          "LstmInferenceSession::load_state_rows: source row out of range");
    }
    const double* sh = src.h_.data() + s * hidden_;
    const double* sc = src.c_.data() + s * hidden_;
    double* dh = h_.data() + r * hidden_;
    double* dc = c_.data() + r * hidden_;
    for (std::size_t j = 0; j < hidden_; ++j) {
      dh[j] = sh[j];
      dc[j] = sc[j];
    }
  }
}

void LstmInferenceSession::store_state(LstmState& state) const {
  if (state.h.rows() != batch_ || state.h.cols() != hidden_) {
    state = LstmState(batch_, hidden_);
  }
  for (std::size_t i = 0; i < batch_ * hidden_; ++i) {
    state.h.data()[i] = h_.data()[i];
    state.c.data()[i] = c_.data()[i];
  }
}

void LstmInferenceSession::set_input(tensor::ConstMatrixView x) {
  if (x.rows() != batch_ || x.cols() != in_) {
    throw std::invalid_argument("LstmInferenceSession: input shape mismatch");
  }
  for (std::size_t r = 0; r < batch_; ++r) {
    const auto src = x.row(r);
    auto dst = x_row(r);
    for (std::size_t c = 0; c < in_; ++c) dst[c] = src[c];
  }
}

void LstmInferenceSession::step() {
  tensor::lstm_cell_step(x_, tensor::ConstMatrixView(layer_->wx()),
                         tensor::ConstMatrixView(layer_->wh()), bias_, c_, h_,
                         scratch_);
}

}  // namespace ranknet::nn
