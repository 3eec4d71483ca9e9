#include "core/pit_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "features/transforms.hpp"
#include "nn/adam.hpp"
#include "util/string_util.hpp"

namespace ranknet::core {

namespace {
constexpr double kCautionScale = 10.0;
constexpr double kAgeScale = 40.0;
}  // namespace

std::string PitModelConfig::cache_key() const {
  return util::format("pit-h%zu-%zu-s%llu-m%d-n%d", hidden1, hidden2,
                      static_cast<unsigned long long>(seed), min_stint,
                      normal_pits_only ? 1 : 0);
}

PitModel::PitModel(PitModelConfig config) : config_(config) {
  util::Rng rng(config_.seed);
  fc1_ = std::make_unique<nn::Dense>(2, config_.hidden1, rng,
                                     nn::Activation::kRelu, "pit.fc1");
  fc2_ = std::make_unique<nn::Dense>(config_.hidden1, config_.hidden2, rng,
                                     nn::Activation::kRelu, "pit.fc2");
  head_ = std::make_unique<nn::GaussianHead>(config_.hidden2, 1, rng,
                                             "pit.head");
}

std::vector<nn::Parameter*> PitModel::params() {
  std::vector<nn::Parameter*> out;
  for (auto* p : fc1_->params()) out.push_back(p);
  for (auto* p : fc2_->params()) out.push_back(p);
  for (auto* p : head_->params()) out.push_back(p);
  return out;
}

PitModel::TrainingData PitModel::build_training_data(
    const std::vector<telemetry::RaceLog>& races) const {
  std::vector<double> caution, age, target;
  for (const auto& race : races) {
    for (int car_id : race.car_ids()) {
      const auto& car = race.car(car_id);
      const auto status = features::compute_status_features(car);
      const auto to_pit = features::laps_to_next_pit(car);
      for (std::size_t lap = 0; lap + 1 < car.laps(); ++lap) {
        const double dist = to_pit[lap];
        const auto next_pit =
            lap + static_cast<std::size_t>(dist);
        if (next_pit >= car.laps()) continue;  // no further stop observed
        if (!car.pit(next_pit)) continue;
        if (config_.normal_pits_only && car.yellow(next_pit)) continue;
        // Total stint length this row belongs to; short stints are the
        // anomaly section the paper removes.
        const double stint_total = status.pit_age[lap] + dist;
        if (stint_total < config_.min_stint) continue;
        caution.push_back(status.caution_laps[lap]);
        age.push_back(status.pit_age[lap]);
        target.push_back(dist);
      }
    }
  }
  TrainingData data;
  data.x = tensor::Matrix(caution.size(), 2);
  for (std::size_t i = 0; i < caution.size(); ++i) {
    data.x(i, 0) = caution[i] / kCautionScale;
    data.x(i, 1) = age[i] / kAgeScale;
  }
  data.y = std::move(target);
  return data;
}

void PitModel::fit(const TrainingData& data, int epochs,
                   std::size_t batch_size, double lr) {
  if (data.y.empty()) return;
  scaler_.fit(data.y);

  nn::AdamConfig adam_config;
  adam_config.lr = lr;
  nn::Adam adam(params(), adam_config);
  util::Rng rng(config_.seed ^ 0xfeed);

  std::vector<std::size_t> order(data.y.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t end = std::min(order.size(), start + batch_size);
      const std::size_t n = end - start;
      tensor::Matrix x(n, 2), z(n, 1);
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = order[start + i];
        x(i, 0) = data.x(row, 0);
        x(i, 1) = data.x(row, 1);
        z(i, 0) = scaler_.transform(data.y[row]);
      }
      auto h = fc2_->forward(fc1_->forward(x));
      auto out = head_->forward(h);
      tensor::Matrix dh;
      head_->nll_backward(out, z, {}, dh);
      fc1_->backward(fc2_->backward(dh));
      adam.step();
    }
  }
}

tensor::Matrix PitModel::normalize(const PitFeatures& f) const {
  tensor::Matrix x(1, 2);
  x(0, 0) = f.caution_laps / kCautionScale;
  x(0, 1) = f.pit_age / kAgeScale;
  return x;
}

PitModel::Prediction PitModel::predict(const PitFeatures& f) const {
  const auto h =
      fc2_->forward_inference(fc1_->forward_inference(normalize(f)));
  const auto out = head_->forward_inference(h);
  Prediction p;
  p.mean = scaler_.inverse(out.mu(0, 0));
  p.stddev = scaler_.inverse_scale(out.sigma(0, 0));
  return p;
}

int PitModel::sample(const PitFeatures& f, util::Rng& rng) const {
  return sample(predict(f), rng);
}

int PitModel::sample(const Prediction& p, util::Rng& rng) {
  const double draw = rng.normal(p.mean, p.stddev);
  return std::max(1, static_cast<int>(std::lround(draw)));
}

std::vector<double> PitModel::sample_future_lap_status(const PitFeatures& now,
                                                       int horizon,
                                                       util::Rng& rng) const {
  std::vector<double> lap_status(static_cast<std::size_t>(horizon), 0.0);
  PitFeatures f = now;
  int lap = 0;  // horizon offset (0 = first future lap)
  while (lap < horizon) {
    // The model predicts laps-to-next-pit given the current (caution, age)
    // features, so the next stop is `to_pit` laps ahead of the current lap.
    const int to_pit = std::max(1, sample(f, rng));
    const int pit_offset = lap + to_pit;
    if (pit_offset > horizon) break;
    lap_status[static_cast<std::size_t>(pit_offset - 1)] = 1.0;
    lap = pit_offset;
    f = PitFeatures{};  // fresh stint: ages reset after the stop
  }
  return lap_status;
}

PitModel::InferenceSession::InferenceSession(const PitModel& model,
                                             tensor::Workspace& ws)
    : model_(&model),
      fc1_(*model.fc1_),
      fc2_(*model.fc2_),
      head_(*model.head_) {
  x_ = ws.take(1, 2);
  h1_ = ws.take(1, model.config_.hidden1);
  h2_ = ws.take(1, model.config_.hidden2);
  mu_ = ws.take(1, 1);
  sigma_ = ws.take(1, 1);
}

PitModel::Prediction PitModel::InferenceSession::predict(
    const PitFeatures& f) const {
  x_(0, 0) = f.caution_laps / kCautionScale;
  x_(0, 1) = f.pit_age / kAgeScale;
  fc1_.apply(x_, h1_);
  fc2_.apply(h1_, h2_);
  head_.forward(h2_, mu_, sigma_);
  Prediction p;
  p.mean = model_->scaler_.inverse(mu_(0, 0));
  p.stddev = model_->scaler_.inverse_scale(sigma_(0, 0));
  return p;
}

}  // namespace ranknet::core
