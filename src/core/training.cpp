#include "core/training.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "nn/adam.hpp"
#include "nn/serialize.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace ranknet::core {

std::string TrainConfig::cache_key() const {
  return util::format("tr-e%d-b%zu-w%zu-s%llu", max_epochs, batch_size,
                      max_windows, static_cast<unsigned long long>(seed));
}

TrainConfig default_train_config() {
  TrainConfig cfg;
  if (const char* fast = std::getenv("RANKNET_FAST");
      fast != nullptr && fast[0] != '\0') {
    cfg.max_epochs = 4;
    cfg.max_windows = 1200;
    cfg.max_val_windows = 300;
  }
  return cfg;
}

features::StandardScaler fit_rank_scaler(
    const std::vector<telemetry::RaceLog>& races) {
  std::vector<double> ranks;
  for (const auto& race : races) {
    for (const auto& rec : race.records()) {
      ranks.push_back(static_cast<double>(rec.rank));
    }
  }
  features::StandardScaler scaler;
  scaler.fit(ranks);
  return scaler;
}

namespace {

std::vector<features::SeqExample> subsample(
    std::vector<features::SeqExample> windows, std::size_t max_count,
    util::Rng& rng) {
  if (windows.size() <= max_count) return windows;
  rng.shuffle(windows);
  windows.resize(max_count);
  return windows;
}

/// Generic epoch loop shared by the LSTM and Transformer trainers.
template <typename Model>
TrainStats run_training(Model& model,
                        const std::vector<telemetry::RaceLog>& train_races,
                        const std::vector<telemetry::RaceLog>& val_races,
                        const features::CarVocab& vocab,
                        const features::WindowConfig& wcfg,
                        const TrainConfig& tcfg) {
  util::Timer timer;
  util::Rng rng(tcfg.seed);
  model.set_scaler(fit_rank_scaler(train_races));

  auto train_windows =
      subsample(features::build_windows(train_races, vocab, wcfg),
                tcfg.max_windows, rng);
  auto val_windows = subsample(features::build_windows(val_races, vocab, wcfg),
                               tcfg.max_val_windows, rng);
  if (train_windows.empty()) {
    throw std::runtime_error("train: no training windows (races too short?)");
  }
  util::log_info(util::format("training %s: %zu train / %zu val windows",
                              typeid(Model).name(), train_windows.size(),
                              val_windows.size()));

  const auto dec_len = static_cast<std::size_t>(wcfg.decoder_length);
  typename Model::Batch val_batch;
  if (!val_windows.empty()) {
    std::vector<const features::SeqExample*> ptrs;
    for (const auto& w : val_windows) ptrs.push_back(&w);
    val_batch = model.make_batch(ptrs, dec_len);
  }

  nn::AdamConfig adam_config;
  adam_config.lr = tcfg.lr;
  nn::Adam adam(model.params(), adam_config);

  TrainStats stats;
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<tensor::Matrix> best_params;
  int stall = 0;
  double lr = tcfg.lr;

  std::vector<std::size_t> order(train_windows.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < tcfg.max_epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += tcfg.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + tcfg.batch_size);
      if (end - start < 2) continue;
      std::vector<const features::SeqExample*> ptrs;
      ptrs.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) {
        ptrs.push_back(&train_windows[order[i]]);
      }
      const auto batch = model.make_batch(ptrs, dec_len);
      epoch_loss += model.train_step(batch);
      adam.step();
      ++batches;
    }
    epoch_loss /= std::max<std::size_t>(1, batches);
    stats.train_loss.push_back(epoch_loss);

    double val_loss = std::numeric_limits<double>::quiet_NaN();
    if (!val_windows.empty()) {
      val_loss = model.evaluate(val_batch);
    } else {
      val_loss = epoch_loss;  // fall back to training loss
    }
    stats.val_loss.push_back(val_loss);
    util::log_info(util::format("  epoch %2d: train %.4f val %.4f lr %.2e",
                                epoch, epoch_loss, val_loss, lr));

    if (val_loss < best_val - 1e-4) {
      best_val = val_loss;
      stall = 0;
      best_params.clear();
      for (auto* p : model.params()) best_params.push_back(p->value);
    } else if (++stall >= tcfg.patience) {
      // Paper's scheme: decay the learning rate 0.5x on plateau; stop once
      // it reaches the minimum.
      lr *= tcfg.lr_decay;
      stall = 0;
      if (lr < tcfg.min_lr) break;
      adam.set_lr(lr);
    }
  }

  if (!best_params.empty()) {
    auto params = model.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_params[i];
      params[i]->zero_grad();
    }
  }
  stats.best_val = best_val;
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace

TrainStats train_sequence_model(
    LstmSeqModel& model, const std::vector<telemetry::RaceLog>& train_races,
    const std::vector<telemetry::RaceLog>& val_races,
    const features::CarVocab& vocab, const features::WindowConfig& wcfg,
    const TrainConfig& tcfg) {
  return run_training(model, train_races, val_races, vocab, wcfg, tcfg);
}

IncrementalStats incremental_update_sequence_model(
    LstmSeqModel& model, const std::vector<telemetry::RaceLog>& fresh_races,
    const features::CarVocab& vocab, const features::WindowConfig& wcfg,
    const IncrementalConfig& icfg) {
  IncrementalStats stats;
  util::Rng rng(icfg.seed);
  // Deliberately no set_scaler here: the fresh window is small and recent,
  // and re-normalizing under already-trained weights would look like a
  // distribution shift to the network.
  auto windows = subsample(features::build_windows(fresh_races, vocab, wcfg),
                           icfg.max_windows, rng);
  stats.windows = windows.size();
  if (windows.empty()) return stats;

  const auto dec_len = static_cast<std::size_t>(wcfg.decoder_length);
  std::vector<const features::SeqExample*> all_ptrs;
  all_ptrs.reserve(windows.size());
  for (const auto& w : windows) all_ptrs.push_back(&w);
  const auto full_batch = model.make_batch(all_ptrs, dec_len);
  stats.nll_before = model.evaluate(full_batch);

  nn::AdamConfig adam_config;
  adam_config.lr = icfg.lr;
  nn::Adam adam(model.params(), adam_config);

  std::vector<std::size_t> order(windows.size());
  std::iota(order.begin(), order.end(), 0);
  std::size_t cursor = 0;
  for (int step = 0; step < icfg.steps; ++step) {
    if (cursor >= order.size()) cursor = 0;
    if (cursor == 0) rng.shuffle(order);
    const std::size_t end =
        std::min(order.size(), cursor + icfg.batch_size);
    std::vector<const features::SeqExample*> ptrs;
    ptrs.reserve(end - cursor);
    for (std::size_t i = cursor; i < end; ++i) {
      ptrs.push_back(&windows[order[i]]);
    }
    cursor = end;
    if (ptrs.size() < 2) continue;  // a 1-row batch destabilizes the stats
    const auto batch = model.make_batch(ptrs, dec_len);
    model.train_step(batch);
    adam.step();
    ++stats.steps_run;
  }
  stats.nll_after = model.evaluate(full_batch);
  return stats;
}

CandidateFitter make_incremental_lstm_fitter(
    std::shared_ptr<LstmSeqModel> base, features::CarVocab vocab,
    features::WindowConfig wcfg, IncrementalConfig icfg, StatusSource source) {
  return [base = std::move(base), vocab = std::move(vocab),
          wcfg = std::move(wcfg), icfg,
          source](const telemetry::RaceWindow& train, std::uint64_t seed,
                  const std::string& artifact_path)
             -> util::Result<FittedCandidate> {
    // Clone the champion weights into a fresh model; the candidate must
    // never mutate what is serving.
    auto candidate = std::make_shared<LstmSeqModel>(base->config());
    const auto src = base->params();
    auto dst = candidate->params();
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i]->value = src[i]->value;
    }
    candidate->set_scaler(base->scaler());

    std::vector<telemetry::RaceLog> fresh;
    fresh.reserve(train.size());
    for (const auto& race : train) fresh.push_back(*race);

    IncrementalConfig run_cfg = icfg;
    run_cfg.seed = seed;
    const IncrementalStats stats = incremental_update_sequence_model(
        *candidate, fresh, vocab, wcfg, run_cfg);
    if (stats.windows == 0) {
      return util::Status::failed_precondition(
          "incremental fit: no windows from the train races");
    }
    nn::save_params(artifact_path, candidate->params());

    FittedCandidate out;
    out.forecaster = std::make_shared<RankNetForecaster>(
        candidate, nullptr, vocab, wcfg.covariates, source, "online-lstm");
    out.artifact_path = artifact_path;
    out.summary =
        util::format("lstm nll %.4f->%.4f windows=%zu steps=%d",
                     stats.nll_before, stats.nll_after, stats.windows,
                     stats.steps_run);
    return out;
  };
}

TrainStats train_transformer_model(
    TransformerSeqModel& model,
    const std::vector<telemetry::RaceLog>& train_races,
    const std::vector<telemetry::RaceLog>& val_races,
    const features::CarVocab& vocab, const features::WindowConfig& wcfg,
    const TrainConfig& tcfg) {
  return run_training(model, train_races, val_races, vocab, wcfg, tcfg);
}

}  // namespace ranknet::core
