// Workload prediction (§IV-B): edit-distance nearest neighbour over the
// knowledge base of time slots.
//
// Given the current slot t_h, the predictor computes P = { Δ(t_h, t_i) }
// over the stored history in one scan, each distance once, and forecasts
// the next slot from the best match (ties -> the most recent slot).  The
// paper's "the slot with the minimum Δ" admits two readings of §IV-B.2,
// and both are implemented; bench/ablation_predictor_modes scores them
// against a persistence baseline:
//   * successor — predict the slot *after* the best match (default);
//   * match     — predict the best-matching slot itself (the literal text).
// Because the forecast is always a slot drawn from history, "dramatically
// growing loads are only ever matched to the largest load seen in the near
// history", making allocation conservative — exactly the paper's remark.
//
// Note: the running system (core::offloading_system) observes the slot it
// just closed and then forecasts from that same slot, so the slot is in its
// own candidate set at distance 0 and the forecast is, in practice, the
// closed slot (ROADMAP, predictor item, step ii).  forecast() answers that
// case by slot equality alone, with the scan's tie rule, so the running
// system computes no edit distance.  The offline evaluators below
// forecast slots that are not in the knowledge base, through the scan.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "trace/time_slot.h"

namespace mca::core {

/// Which slot the nearest-neighbour lookup forecasts.
enum class prediction_mode { successor, match };

const char* to_string(prediction_mode m) noexcept;

/// The adaptive model's prediction half.
class workload_predictor {
 public:
  explicit workload_predictor(prediction_mode mode = prediction_mode::successor)
      : mode_{mode} {}

  /// Replaces the knowledge base.
  void set_history(std::vector<trace::time_slot> history);
  /// Appends one observed slot to the knowledge base.
  void observe(trace::time_slot slot);

  /// The knowledge base, oldest slot first.
  const std::vector<trace::time_slot>& history() const noexcept {
    return history_;
  }

  /// The knowledge-base slot forecast to follow `current`: the best match
  /// itself (match mode), or the slot after the best match that has a
  /// successor unless the newest slot is a strictly better match (successor
  /// mode).  nullptr when the knowledge base is too small: empty, or a
  /// single slot in successor mode.  When `current` equals the newest
  /// slot the answer takes equality tests only (no edit distance, and no
  /// check of the group counts of the slots it skips).  The pointer is
  /// valid until the next observe() or set_history().
  const trace::time_slot* forecast(const trace::time_slot& current) const;

 private:
  prediction_mode mode_;
  std::vector<trace::time_slot> history_;
};

/// Accuracy of one slot forecast: mean over groups of
/// 1 - |pred - actual| / max(pred, actual, 1), in [0,1].
/// Throws std::invalid_argument when the vectors' sizes differ or both are
/// empty.
double prediction_accuracy(std::span<const std::size_t> predicted,
                           std::span<const std::size_t> actual);

/// Walk-forward evaluation: using the chronologically first
/// `knowledge_size` slots as the knowledge base, forecast each following
/// transition and average the accuracy.  This is the Fig. 10a
/// "accuracy vs size of the data" curve.  Returns nullopt when history is
/// too short to score at least one transition.
std::optional<double> walk_forward_accuracy(
    std::span<const trace::time_slot> history, std::size_t knowledge_size,
    prediction_mode mode = prediction_mode::successor);

/// k-fold chronological cross-validation (the paper's 10-fold evaluation):
/// each fold is held out, the rest is the knowledge base, and transitions
/// inside the held-out fold are forecast and scored.
struct cross_validation_result {
  double mean_accuracy = 0.0;
  std::vector<double> fold_accuracy;
};

/// Throws std::invalid_argument when folds < 2 or history is too short.
cross_validation_result cross_validate(
    std::span<const trace::time_slot> history, std::size_t folds,
    prediction_mode mode = prediction_mode::successor);

}  // namespace mca::core
