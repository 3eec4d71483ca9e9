// Serving-side wiring of the online learning loop: the ingest → replay →
// train → gate → registry pipeline (DESIGN.md "Online learning & promotion
// gates").
//
// core::OnlineTrainer is deliberately registry-agnostic (core cannot link
// serve); this header supplies the serve-side halves:
//   * RegistryPromotionTarget — PromotionTarget over ModelRegistry::swap /
//     rollback, so a gate-passed candidate still runs the registry's own
//     stage + shadow-gate + probation machinery (two independent gates, by
//     design: the trainer judges quality on fresh races, the registry
//     judges serveability of the artifact bytes).
//   * registry_champion_view — the trainer's probe opponent: the active
//     generation's engine, pinned via an aliasing shared_ptr so the whole
//     ServingModel survives while a shadow score is in flight. Scoring the
//     engine (not the raw forecaster) is what makes champion metrics
//     identical for any engine thread count.
//   * make_affine_fitter — a CandidateFitter that refits the serving
//     AffineRankModel on the train window by exponentially-decayed least
//     squares (ml::OnlineLinearFit) and emits a v2 artifact.
//     Microsecond-cheap, so soak tests drive hundreds of full
//     promote/rollback cycles in CI time.
//   * OnlineLoop — the session object gluing a long-lived StreamIngestor
//     (begin_race per race), the ReplayBuffer and the OnlineTrainer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/online_trainer.hpp"
#include "serve/model_registry.hpp"
#include "telemetry/replay_buffer.hpp"
#include "telemetry/stream_ingestor.hpp"

namespace ranknet::obs {
class Counter;
}

namespace ranknet::serve {

class RegistryPromotionTarget : public core::PromotionTarget {
 public:
  explicit RegistryPromotionTarget(ModelRegistry& registry)
      : registry_(registry) {}

  util::Result<std::uint64_t> promote(
      const std::string& artifact_path) override;
  util::Result<std::uint64_t> rollback(const std::string& reason) override;

 private:
  ModelRegistry& registry_;
};

/// Champion view for the trainer: the active generation's parallel engine
/// (falls back to the registry's CurRank fallback before init, so the view
/// is never null). The returned pointer aliases the ServingModel, keeping
/// the generation alive for the duration of a shadow score.
std::function<std::shared_ptr<core::RaceForecaster>()> registry_champion_view(
    ModelRegistry& registry);

struct AffineFitterConfig {
  /// Laps ahead the regression pairs (rank at lap t, rank at lap t+h) span
  /// — match the probe horizon so the fit optimizes what the gate scores.
  int horizon = 5;
  /// Per-race-boundary decay of older races' weight (1 = flat window).
  double decay = 0.9;
  double ridge = 1e-9;
};

/// Deterministic affine refit on the train window; ignores the per-attempt
/// seed (the fit is closed-form). Emits a v2 artifact.
core::CandidateFitter make_affine_fitter(AffineFitterConfig config = {});

struct OnlineLoopConfig {
  telemetry::IngestConfig ingest;
  telemetry::ReplayConfig replay;
  core::OnlineTrainerConfig trainer;
};

class OnlineLoop {
 public:
  OnlineLoop(ModelRegistry& registry, core::CandidateFitter fitter,
             OnlineLoopConfig config);

  /// Feed one race's (possibly fault-injected) record stream through the
  /// session ingestor and, on successful finalize, into the replay buffer.
  /// A race whose stream was too damaged to finalize returns the error and
  /// books nothing into replay (the trainer simply keeps its window).
  util::Status ingest_race(const telemetry::EventInfo& info,
                           const std::vector<telemetry::LapRecord>& records);

  /// One synchronous train/gate/promote step (see OnlineTrainer::step).
  core::TraceEvent step();

  core::OnlineTrainer& trainer() { return *trainer_; }
  telemetry::ReplayBuffer& replay() { return replay_; }
  telemetry::StreamIngestor& ingestor() { return ingestor_; }

 private:
  telemetry::StreamIngestor ingestor_;
  telemetry::ReplayBuffer replay_;
  RegistryPromotionTarget target_;
  std::unique_ptr<core::OnlineTrainer> trainer_;

  // serve.online.* ingest-side handles.
  obs::Counter* races_ingested_;
  obs::Counter* races_rejected_;
  obs::Counter* records_accepted_;
  obs::Counter* records_quarantined_;
};

}  // namespace ranknet::serve
