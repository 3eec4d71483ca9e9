#include "core/registry.hpp"

#include <cstdlib>
#include <filesystem>

#include "nn/serialize.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace ranknet::core {

namespace {

std::vector<telemetry::RaceLog> all_train_races(const sim::EventDataset& ds) {
  return ds.train;
}

}  // namespace

ZooConfig::ZooConfig() : train(default_train_config()) {
  if (const char* env = std::getenv("RANKNET_ARTIFACTS");
      env != nullptr && env[0] != '\0') {
    artifacts_dir = env;
  } else {
    artifacts_dir = "artifacts";
  }
}

ModelZoo::ModelZoo(ZooConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.artifacts_dir);
}

features::WindowConfig ModelZoo::ranknet_window_config() {
  features::WindowConfig w;
  w.encoder_length = 60;  // Fig. 7 step 2
  w.decoder_length = 2;
  w.change_weight = 9.0;  // Fig. 7 step 1
  w.covariates.race_status = true;
  w.covariates.age_features = true;
  w.covariates.context_features = true;  // Fig. 7 step 3
  w.covariates.shift_features = true;    // Fig. 7 step 4
  w.covariates.shift = 2;
  w.stride = 2;
  return w;
}

features::WindowConfig ModelZoo::deepar_window_config() {
  auto w = ranknet_window_config();
  w.covariates.race_status = false;
  w.covariates.age_features = false;
  w.covariates.context_features = false;
  w.covariates.shift_features = false;
  return w;
}

features::WindowConfig ModelZoo::joint_window_config() {
  auto w = ranknet_window_config();
  // Race status stays in the window rows (it becomes the aux target dims),
  // everything else is dropped: the Joint model gets no known-future inputs.
  w.covariates.race_status = true;
  w.covariates.age_features = false;
  w.covariates.context_features = false;
  w.covariates.shift_features = false;
  return w;
}

std::string ModelZoo::window_key(const features::WindowConfig& w) {
  return util::format("w%d-%d-%.1f-%d|%d%d%d%d-%d", w.encoder_length,
                      w.decoder_length, w.change_weight, w.stride,
                      w.covariates.race_status ? 1 : 0,
                      w.covariates.age_features ? 1 : 0,
                      w.covariates.context_features ? 1 : 0,
                      w.covariates.shift_features ? 1 : 0,
                      w.covariates.shift);
}

void ModelZoo::split_validation(const sim::EventDataset& ds,
                                std::vector<telemetry::RaceLog>& train,
                                std::vector<telemetry::RaceLog>& val) {
  train = ds.train;
  val = ds.validation;
  if (val.empty() && train.size() > 1) {
    val.push_back(train.back());
    train.pop_back();
  }
}

std::string ModelZoo::cache_path(const std::string& event,
                                 const std::string& key) const {
  // The simulator version ties cached weights to the data they were fitted
  // on; bumping it invalidates every stale model at once.
  const auto full_key =
      util::format("v%d|%llu|%s", sim::kSimulatorVersion,
                   static_cast<unsigned long long>(sim::kDefaultDatasetSeed),
                   key.c_str());
  return util::format("%s/%s-%016llx.bin", config_.artifacts_dir.c_str(),
                      event.c_str(),
                      static_cast<unsigned long long>(util::fnv1a(full_key)));
}

namespace {

/// Non-Indy500 events appear only in the generalization study (Table VII)
/// and carry less dynamic variety (fewer cautions and pit cycles), so their
/// models train on a reduced budget to keep the single-core bench suite
/// within minutes. Indy500 — the paper's primary benchmark — keeps the full
/// budget.
TrainConfig event_train_config(const TrainConfig& base,
                               const std::string& event) {
  TrainConfig cfg = base;
  if (event != "Indy500") {
    cfg.max_windows = std::min<std::size_t>(cfg.max_windows, 2500);
    cfg.max_epochs = std::min(cfg.max_epochs, 10);
  }
  return cfg;
}

/// Generic cached train-or-load for either sequence model type.
template <typename Model, typename TrainFn>
TrainStats load_or_train(Model& model, const std::string& path,
                         TrainFn&& train_fn) {
  if (std::filesystem::exists(path)) {
    nn::load_params(path, model.params());
    util::log_info("loaded cached model: " + path);
    return {};
  }
  TrainStats stats = train_fn();
  nn::save_params(path, model.params());
  util::log_info(util::format("trained in %.1fs, cached to %s", stats.seconds,
                              path.c_str()));
  return stats;
}

}  // namespace

ModelZoo::LstmBundle ModelZoo::rank_model(const sim::EventDataset& ds) {
  LstmBundle b;
  b.wcfg = ranknet_window_config();
  std::vector<telemetry::RaceLog> train, val;
  split_validation(ds, train, val);
  b.vocab = features::CarVocab(all_train_races(ds));

  SeqModelConfig net;
  net.cov_dim = b.wcfg.covariates.dim();
  net.vocab = b.vocab.size();
  b.model = std::make_shared<LstmSeqModel>(net);
  b.model->set_scaler(fit_rank_scaler(train));

  const auto tcfg = event_train_config(config_.train, ds.event);
  const auto path = cache_path(
      ds.event, "rank|" + net.cache_key() + "|" + window_key(b.wcfg) + "|" +
                    tcfg.cache_key());
  b.stats = load_or_train(*b.model, path, [&] {
    return train_sequence_model(*b.model, train, val, b.vocab, b.wcfg, tcfg);
  });
  return b;
}

ModelZoo::LstmBundle ModelZoo::deepar_model(const sim::EventDataset& ds) {
  LstmBundle b;
  b.wcfg = deepar_window_config();
  std::vector<telemetry::RaceLog> train, val;
  split_validation(ds, train, val);
  b.vocab = features::CarVocab(all_train_races(ds));

  SeqModelConfig net;
  net.cov_dim = 0;
  net.vocab = b.vocab.size();
  b.model = std::make_shared<LstmSeqModel>(net);
  b.model->set_scaler(fit_rank_scaler(train));

  const auto path = cache_path(
      ds.event, "deepar|" + net.cache_key() + "|" + window_key(b.wcfg) + "|" +
                    config_.train.cache_key());
  b.stats = load_or_train(*b.model, path, [&] {
    return train_sequence_model(*b.model, train, val, b.vocab, b.wcfg,
                                config_.train);
  });
  return b;
}

ModelZoo::LstmBundle ModelZoo::joint_model(const sim::EventDataset& ds) {
  LstmBundle b;
  b.wcfg = joint_window_config();
  std::vector<telemetry::RaceLog> train, val;
  split_validation(ds, train, val);
  b.vocab = features::CarVocab(all_train_races(ds));

  SeqModelConfig net;
  net.cov_dim = 0;
  net.target_dim = 3;  // [Rank, TrackStatus, LapStatus]
  net.vocab = b.vocab.size();
  b.model = std::make_shared<LstmSeqModel>(net);
  b.model->set_scaler(fit_rank_scaler(train));

  const auto tcfg = event_train_config(config_.train, ds.event);
  const auto path = cache_path(
      ds.event, "joint|" + net.cache_key() + "|" + window_key(b.wcfg) + "|" +
                    tcfg.cache_key());
  b.stats = load_or_train(*b.model, path, [&] {
    return train_sequence_model(*b.model, train, val, b.vocab, b.wcfg, tcfg);
  });
  return b;
}

ModelZoo::TransformerBundle ModelZoo::transformer_model(
    const sim::EventDataset& ds) {
  TransformerBundle b;
  b.wcfg = ranknet_window_config();
  // Attention is O(T^2): a shorter encoder keeps the Transformer's training
  // budget comparable to the LSTM's (accuracy is insensitive; see Fig. 9).
  b.wcfg.encoder_length = 30;
  std::vector<telemetry::RaceLog> train, val;
  split_validation(ds, train, val);
  b.vocab = features::CarVocab(all_train_races(ds));

  TransformerConfig net;
  net.cov_dim = b.wcfg.covariates.dim();
  net.vocab = b.vocab.size();
  b.model = std::make_shared<TransformerSeqModel>(net);
  b.model->set_scaler(fit_rank_scaler(train));

  // The quadratic attention cost makes Transformer epochs several times
  // more expensive than LSTM ones; with the shorter context the model also
  // saturates on fewer windows, so its budget is capped separately.
  TrainConfig tf_train = event_train_config(config_.train, ds.event);
  tf_train.max_windows = std::min<std::size_t>(tf_train.max_windows, 2500);
  tf_train.max_epochs = std::min(tf_train.max_epochs, 10);

  const auto path = cache_path(
      ds.event, "tf|" + net.cache_key() + "|" + window_key(b.wcfg) + "|" +
                    tf_train.cache_key());
  b.stats = load_or_train(*b.model, path, [&] {
    return train_transformer_model(*b.model, train, val, b.vocab, b.wcfg,
                                   tf_train);
  });
  return b;
}

ModelZoo::LstmBundle ModelZoo::custom_rank_model(
    const sim::EventDataset& ds, const features::WindowConfig& wcfg,
    const TrainConfig& tcfg) {
  LstmBundle b;
  b.wcfg = wcfg;
  std::vector<telemetry::RaceLog> train, val;
  split_validation(ds, train, val);
  b.vocab = features::CarVocab(all_train_races(ds));

  SeqModelConfig net;
  net.cov_dim = wcfg.covariates.dim();
  net.vocab = b.vocab.size();
  b.model = std::make_shared<LstmSeqModel>(net);
  b.model->set_scaler(fit_rank_scaler(train));

  const auto path = cache_path(
      ds.event, "rank|" + net.cache_key() + "|" + window_key(wcfg) + "|" +
                    tcfg.cache_key());
  b.stats = load_or_train(*b.model, path, [&] {
    return train_sequence_model(*b.model, train, val, b.vocab, wcfg, tcfg);
  });
  return b;
}

std::shared_ptr<PitModel> ModelZoo::pit_model(const sim::EventDataset& ds) {
  PitModelConfig cfg;
  auto model = std::make_shared<PitModel>(cfg);
  const auto data = model->build_training_data(ds.train);
  // The target scaler is deterministic given the dataset; recompute it.
  features::StandardScaler scaler;
  scaler.fit(data.y);
  model->set_scaler(scaler);

  const auto path = cache_path(ds.event, "pit|" + cfg.cache_key());
  if (std::filesystem::exists(path)) {
    nn::load_params(path, model->params());
  } else {
    model->fit(data);
    nn::save_params(path, model->params());
  }
  return model;
}

std::unique_ptr<RankNetForecaster> ModelZoo::ranknet_mlp(
    const sim::EventDataset& ds) {
  auto bundle = rank_model(ds);
  return std::make_unique<RankNetForecaster>(
      bundle.model, pit_model(ds), bundle.vocab, bundle.wcfg.covariates,
      StatusSource::kPitModel, "RankNet-MLP");
}

std::unique_ptr<RankNetForecaster> ModelZoo::ranknet_oracle(
    const sim::EventDataset& ds) {
  auto bundle = rank_model(ds);
  return std::make_unique<RankNetForecaster>(
      bundle.model, nullptr, bundle.vocab, bundle.wcfg.covariates,
      StatusSource::kOracle, "RankNet-Oracle");
}

std::unique_ptr<RankNetForecaster> ModelZoo::ranknet_joint(
    const sim::EventDataset& ds) {
  auto bundle = joint_model(ds);
  return std::make_unique<RankNetForecaster>(
      bundle.model, nullptr, bundle.vocab, bundle.wcfg.covariates,
      StatusSource::kJoint, "RankNet-Joint");
}

std::unique_ptr<RankNetForecaster> ModelZoo::deepar(
    const sim::EventDataset& ds) {
  auto bundle = deepar_model(ds);
  return std::make_unique<RankNetForecaster>(
      bundle.model, nullptr, bundle.vocab, bundle.wcfg.covariates,
      StatusSource::kOracle, "DeepAR");
}

std::unique_ptr<TransformerForecaster> ModelZoo::transformer_mlp(
    const sim::EventDataset& ds) {
  auto bundle = transformer_model(ds);
  return std::make_unique<TransformerForecaster>(
      bundle.model, pit_model(ds), bundle.vocab, bundle.wcfg.covariates,
      StatusSource::kPitModel, "Transformer-MLP");
}

std::unique_ptr<TransformerForecaster> ModelZoo::transformer_oracle(
    const sim::EventDataset& ds) {
  auto bundle = transformer_model(ds);
  return std::make_unique<TransformerForecaster>(
      bundle.model, nullptr, bundle.vocab, bundle.wcfg.covariates,
      StatusSource::kOracle, "Transformer-Oracle");
}

}  // namespace ranknet::core
