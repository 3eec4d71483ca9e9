// PitModel (paper Fig. 5b): a multilayer perceptron with probabilistic
// output that predicts the number of laps until a car's next pit stop from
// the accumulation features CautionLaps and PitAge. Used by RankNet-MLP to
// sample future race status (Algorithm 2 step 1). Following the paper's
// pit-stop analysis, training can be restricted to "normal" pit data with
// the short-distance anomaly section removed, which stabilizes the model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "features/scaler.hpp"
#include "features/transforms.hpp"
#include "nn/dense.hpp"
#include "nn/gaussian.hpp"
#include "nn/inference.hpp"
#include "telemetry/race_log.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"

namespace ranknet::core {

struct PitModelConfig {
  std::size_t hidden1 = 32;
  std::size_t hidden2 = 16;
  std::uint64_t seed = 77;
  /// Drop training rows whose stint ends in fewer than this many laps
  /// (the unexpected-mechanical short section of Fig. 4b).
  int min_stint = 8;
  /// Only learn from stints that end with a green-flag (normal) pit.
  bool normal_pits_only = true;

  std::string cache_key() const;
};

/// One PitModel training/inference input row: the age-feature state
/// (caution laps and laps since the last pit) at the current lap.
using PitFeatures = features::AgeState;

class PitModel : public nn::Layer {
 public:
  explicit PitModel(PitModelConfig config = {});

  const PitModelConfig& config() const { return config_; }

  /// Build training rows from races: every lap with a following pit stop
  /// becomes (features at lap -> laps until the next stop), filtered per
  /// config.
  struct TrainingData {
    tensor::Matrix x;          // (n x 2) normalized features
    std::vector<double> y;     // laps-to-pit (raw)
  };
  TrainingData build_training_data(
      const std::vector<telemetry::RaceLog>& races) const;

  /// Fit with Adam on Gaussian NLL; scales the target internally.
  void fit(const TrainingData& data, int epochs = 60,
           std::size_t batch_size = 256, double lr = 1e-3);

  /// Predictive distribution of laps-to-next-pit.
  struct Prediction {
    double mean = 0.0;
    double stddev = 1.0;
  };
  Prediction predict(const PitFeatures& f) const;

  /// Sample laps-to-next-pit (>= 1, rounded).
  int sample(const PitFeatures& f, util::Rng& rng) const;
  /// The same draw from a prediction already made.
  static int sample(const Prediction& p, util::Rng& rng);

  /// Sample a full future pit-status vector for the next `horizon` laps,
  /// starting from current features (Algorithm 2 step 1: successive stints
  /// sampled until the horizon is covered; TrackStatus assumed green).
  std::vector<double> sample_future_lap_status(const PitFeatures& now,
                                               int horizon,
                                               util::Rng& rng) const;

  std::vector<nn::Parameter*> params() override;

  void set_scaler(const features::StandardScaler& s) { scaler_ = s; }
  const features::StandardScaler& scaler() const { return scaler_; }

  /// Zero-allocation serving face of the MLP: all scratch comes from `ws`
  /// at construction, so predict() allocates nothing. Bit-identical to
  /// PitModel::predict (same kernels). Views live until the next
  /// ws.begin().
  class InferenceSession {
   public:
    InferenceSession(const PitModel& model, tensor::Workspace& ws);

    Prediction predict(const PitFeatures& f) const;

   private:
    const PitModel* model_;
    nn::DenseInferenceSession fc1_, fc2_;
    nn::GaussianInferenceSession head_;
    tensor::MatrixView x_, h1_, h2_, mu_, sigma_;
  };

 private:
  tensor::Matrix normalize(const PitFeatures& f) const;

  PitModelConfig config_;
  std::unique_ptr<nn::Dense> fc1_, fc2_;
  std::unique_ptr<nn::GaussianHead> head_;
  features::StandardScaler scaler_{0.0, 1.0};
};

}  // namespace ranknet::core
