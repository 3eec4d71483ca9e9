// ModelZoo: canonical model configurations (paper Table IV + the Fig. 7
// optimized feature set) and a disk-backed cache of trained weights so the
// bench suite trains each model once. Cache files live under
// $RANKNET_ARTIFACTS (default ./artifacts), keyed by event + full config
// hash; delete the directory to force retraining.
#pragma once

#include <memory>
#include <string>

#include "core/pit_model.hpp"
#include "core/ranknet.hpp"
#include "core/training.hpp"
#include "simulator/season.hpp"

namespace ranknet::core {

struct ZooConfig {
  std::string artifacts_dir;  // empty = $RANKNET_ARTIFACTS or "artifacts"
  TrainConfig train;          // default_train_config() when unset
  ZooConfig();
};

class ModelZoo {
 public:
  explicit ModelZoo(ZooConfig config = {});

  // Canonical configurations -------------------------------------------
  /// RankNet windows: encoder 60, decoder 2, loss weight 9, full covariates
  /// incl. context + shift features (paper Fig. 7 final model).
  static features::WindowConfig ranknet_window_config();
  /// DeepAR: same architecture without race-status covariates (Table III).
  static features::WindowConfig deepar_window_config();
  /// Joint: race status moves from covariates into the target vector.
  static features::WindowConfig joint_window_config();

  struct LstmBundle {
    std::shared_ptr<LstmSeqModel> model;
    features::CarVocab vocab;
    features::WindowConfig wcfg;
    TrainStats stats;  // empty when loaded from cache
  };
  struct TransformerBundle {
    std::shared_ptr<TransformerSeqModel> model;
    features::CarVocab vocab;
    features::WindowConfig wcfg;
    TrainStats stats;
  };

  /// Stable cache-key fragment for a window configuration.
  static std::string window_key(const features::WindowConfig& wcfg);

  // Trained building blocks (cached) ------------------------------------
  LstmBundle rank_model(const sim::EventDataset& ds);
  /// Rank model with a custom window configuration (Fig. 7 ablations).
  LstmBundle custom_rank_model(const sim::EventDataset& ds,
                               const features::WindowConfig& wcfg,
                               const TrainConfig& tcfg);
  LstmBundle deepar_model(const sim::EventDataset& ds);
  LstmBundle joint_model(const sim::EventDataset& ds);
  TransformerBundle transformer_model(const sim::EventDataset& ds);
  std::shared_ptr<PitModel> pit_model(const sim::EventDataset& ds);

  // Ready-made forecasters ----------------------------------------------
  std::unique_ptr<RankNetForecaster> ranknet_mlp(const sim::EventDataset& ds);
  std::unique_ptr<RankNetForecaster> ranknet_oracle(
      const sim::EventDataset& ds);
  std::unique_ptr<RankNetForecaster> ranknet_joint(
      const sim::EventDataset& ds);
  std::unique_ptr<RankNetForecaster> deepar(const sim::EventDataset& ds);
  std::unique_ptr<TransformerForecaster> transformer_mlp(
      const sim::EventDataset& ds);
  std::unique_ptr<TransformerForecaster> transformer_oracle(
      const sim::EventDataset& ds);

  const ZooConfig& config() const { return config_; }

 private:
  /// Validation races: the dataset's own, or the last training race held
  /// out when the event has no validation year (paper: only Indy500 does).
  static void split_validation(const sim::EventDataset& ds,
                               std::vector<telemetry::RaceLog>& train,
                               std::vector<telemetry::RaceLog>& val);

  std::string cache_path(const std::string& event,
                         const std::string& key) const;

  ZooConfig config_;
};

}  // namespace ranknet::core
