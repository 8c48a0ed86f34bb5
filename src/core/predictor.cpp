#include "core/predictor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mca::core {

const char* to_string(prediction_mode m) noexcept {
  switch (m) {
    case prediction_mode::successor: return "successor";
    case prediction_mode::match: return "match";
  }
  return "unknown";
}

void workload_predictor::set_history(std::vector<trace::time_slot> history) {
  history_ = std::move(history);
}

void workload_predictor::observe(trace::time_slot slot) {
  history_.push_back(std::move(slot));
}

const trace::time_slot* workload_predictor::forecast(
    const trace::time_slot& current) const {
  if (history_.empty()) return nullptr;
  const std::size_t newest = history_.size() - 1;
  if (mode_ == prediction_mode::successor && newest == 0) return nullptr;
  if (&current == &history_[newest] || current == history_[newest]) {
    // The running system forecasts from the slot it just closed.  Its
    // distance to the newest slot is 0 and no slot is nearer, so the scan
    // below would answer without needing one edit distance: match takes
    // the newest slot; successor takes the slot after the latest earlier
    // copy of it (distance 0 wins with ties to the most recent), or the
    // newest when there is none.
    if (mode_ == prediction_mode::match) return &history_[newest];
    for (std::size_t i = newest; i-- > 0;) {
      if (history_[i] == current) return &history_[i + 1];
    }
    return &history_[newest];
  }
  // One scan: the best match among the slots that have a successor, then
  // the newest slot.  Ties resolve to the most recent slot: recent
  // behaviour is the better template for what follows.
  std::size_t best = newest;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < newest; ++i) {
    const std::size_t d = trace::slot_distance(current, history_[i]);
    if (d <= best_distance) {
      best_distance = d;
      best = i;
    }
  }
  const std::size_t newest_distance =
      trace::slot_distance(current, history_[newest]);
  if (mode_ == prediction_mode::match) {
    return &history_[newest_distance <= best_distance ? newest : best];
  }
  // successor mode: the slot that followed the best match, so the newest
  // slot (whose future is unknown) does not shadow an equally good earlier
  // match.  When the newest slot is the strictly better match, persistence.
  return &history_[best_distance <= newest_distance ? best + 1 : newest];
}

double prediction_accuracy(std::span<const std::size_t> predicted,
                           std::span<const std::size_t> actual) {
  if (predicted.size() != actual.size()) {
    throw std::invalid_argument{"prediction_accuracy: size mismatch"};
  }
  if (predicted.empty()) {
    throw std::invalid_argument{"prediction_accuracy: no groups"};
  }
  double total = 0.0;
  for (std::size_t g = 0; g < predicted.size(); ++g) {
    const double p = static_cast<double>(predicted[g]);
    const double a = static_cast<double>(actual[g]);
    const double denom = std::max({p, a, 1.0});
    total += 1.0 - std::abs(p - a) / denom;
  }
  return total / static_cast<double>(predicted.size());
}

namespace {

/// Mean accuracy of the forecasts for the transitions history[i] ->
/// history[i + 1], i in [lo, hi - 1); nullopt when none could be scored.
std::optional<double> score_transitions(
    const workload_predictor& predictor,
    std::span<const trace::time_slot> history, std::size_t lo,
    std::size_t hi) {
  double total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = lo; i + 1 < hi; ++i) {
    const trace::time_slot* forecast = predictor.forecast(history[i]);
    if (forecast == nullptr) continue;
    total += prediction_accuracy(forecast->group_counts(),
                                 history[i + 1].group_counts());
    ++scored;
  }
  if (scored == 0) return std::nullopt;
  return total / static_cast<double>(scored);
}

}  // namespace

std::optional<double> walk_forward_accuracy(
    std::span<const trace::time_slot> history, std::size_t knowledge_size,
    prediction_mode mode) {
  if (knowledge_size < 2 || knowledge_size >= history.size()) {
    return std::nullopt;
  }
  workload_predictor predictor{mode};
  predictor.set_history({history.begin(),
                         history.begin() + static_cast<std::ptrdiff_t>(
                                               knowledge_size)});
  return score_transitions(predictor, history, knowledge_size - 1,
                           history.size());
}

cross_validation_result cross_validate(
    std::span<const trace::time_slot> history, std::size_t folds,
    prediction_mode mode) {
  if (folds < 2) throw std::invalid_argument{"cross_validate: folds < 2"};
  if (history.size() < folds + 1) {
    throw std::invalid_argument{"cross_validate: history shorter than folds"};
  }
  cross_validation_result result;
  const std::size_t fold_length = history.size() / folds;
  for (std::size_t f = 0; f < folds; ++f) {
    const std::size_t lo = f * fold_length;
    const std::size_t hi =
        (f + 1 == folds) ? history.size() : lo + fold_length;
    // Knowledge base: everything outside [lo, hi).
    std::vector<trace::time_slot> knowledge;
    knowledge.reserve(history.size() - (hi - lo));
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (i < lo || i >= hi) knowledge.push_back(history[i]);
    }
    workload_predictor predictor{mode};
    predictor.set_history(std::move(knowledge));
    if (const auto accuracy = score_transitions(predictor, history, lo, hi)) {
      result.fold_accuracy.push_back(*accuracy);
    }
  }
  if (result.fold_accuracy.empty()) {
    throw std::invalid_argument{"cross_validate: folds too short to score"};
  }
  double sum = 0.0;
  for (double a : result.fold_accuracy) sum += a;
  result.mean_accuracy = sum / static_cast<double>(result.fold_accuracy.size());
  return result;
}

}  // namespace mca::core
