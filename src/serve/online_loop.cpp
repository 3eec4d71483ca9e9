#include "serve/online_loop.hpp"

#include <utility>

#include "ml/online_linear.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "serve/affine_model.hpp"
#include "util/string_util.hpp"

namespace ranknet::serve {

util::Result<std::uint64_t> RegistryPromotionTarget::promote(
    const std::string& artifact_path) {
  const auto outcome = registry_.swap(artifact_path);
  if (outcome.action != wire::SwapAction::kPromoted) {
    if (!outcome.status.ok()) return outcome.status;
    return util::Status::failed_precondition(
        "registry refused the swap without a status");
  }
  return outcome.active_version;
}

util::Result<std::uint64_t> RegistryPromotionTarget::rollback(
    const std::string& reason) {
  const auto outcome = registry_.rollback(reason);
  if (outcome.action != wire::SwapAction::kRolledBack) {
    if (!outcome.status.ok()) return outcome.status;
    return util::Status::failed_precondition(
        "registry refused the rollback without a status");
  }
  return outcome.active_version;
}

std::function<std::shared_ptr<core::RaceForecaster>()> registry_champion_view(
    ModelRegistry& registry) {
  return [&registry]() -> std::shared_ptr<core::RaceForecaster> {
    auto model = registry.active();
    if (!model) return registry.fallback();
    // Aliasing constructor: the view exposes the engine but owns the whole
    // generation, so an in-flight shadow score keeps it alive even if the
    // registry publishes a successor mid-probe.
    return {model, model->engine.get()};
  };
}

core::CandidateFitter make_affine_fitter(AffineFitterConfig config) {
  return [config](const telemetry::RaceWindow& train, std::uint64_t /*seed*/,
                  const std::string& artifact_path)
             -> util::Result<core::FittedCandidate> {
    ml::OnlineLinearFit fit;
    const auto h = static_cast<std::size_t>(config.horizon);
    for (const auto& race : train) {
      // Oldest race decays the most: one decay per boundary *before* its
      // successor's samples land.
      fit.decay(config.decay);
      for (const auto& [car_id, series] : race->cars()) {
        const auto& rank = series.rank;
        if (rank.size() <= h) continue;
        for (std::size_t i = 0; i + h < rank.size(); ++i) {
          fit.add(rank[i], rank[i + h]);
        }
      }
    }
    if (fit.observations() == 0) {
      return util::Status::failed_precondition(
          "affine fit: no (origin, horizon) rank pairs in the train window");
    }
    const auto coeffs = fit.fit(config.ridge);

    AffineRankModel model(coeffs.slope, coeffs.intercept);
    nn::save_params(artifact_path, model.params());

    core::FittedCandidate out;
    out.forecaster =
        std::make_shared<AffineRankModel>(coeffs.slope, coeffs.intercept);
    out.artifact_path = artifact_path;
    out.summary = util::format(
        "affine scale=%.6g offset=%.6g n=%llu", coeffs.slope, coeffs.intercept,
        static_cast<unsigned long long>(fit.observations()));
    return out;
  };
}

OnlineLoop::OnlineLoop(ModelRegistry& registry, core::CandidateFitter fitter,
                       OnlineLoopConfig config)
    : ingestor_(config.ingest),
      replay_(config.replay),
      target_(registry) {
  trainer_ = std::make_unique<core::OnlineTrainer>(
      config.trainer, replay_, std::move(fitter), target_,
      registry_champion_view(registry));
  auto& reg = obs::Registry::instance();
  races_ingested_ = &reg.counter("serve.online.races_ingested");
  races_rejected_ = &reg.counter("serve.online.races_rejected");
  records_accepted_ = &reg.counter("serve.online.records_accepted");
  records_quarantined_ = &reg.counter("serve.online.records_quarantined");
}

util::Status OnlineLoop::ingest_race(
    const telemetry::EventInfo& info,
    const std::vector<telemetry::LapRecord>& records) {
  ingestor_.begin_race();
  for (const auto& rec : records) {
    // Per-record rejections are quarantine business as usual — already
    // tallied by the ingestor; only finalize decides the race's fate.
    (void)ingestor_.push(rec);
  }
  auto finalized = ingestor_.finalize(info);
  const auto& counters = ingestor_.counters();
  records_accepted_->add(counters.accepted);
  records_quarantined_->add(counters.quarantined());
  if (!finalized.ok()) {
    races_rejected_->add();
    return finalized.status();
  }
  races_ingested_->add();
  replay_.push(std::move(finalized).value());
  return {};
}

core::TraceEvent OnlineLoop::step() { return trainer_->step(); }

}  // namespace ranknet::serve
