#include "client/usage_trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <utility>

namespace mca::client {

namespace {
/// Mean app sessions per active (daytime) hour per participant.
constexpr double kSessionsPerActiveHour = 3.0;
/// Mean session length.
constexpr util::time_ms kMeanSessionLength = util::minutes(2.5);
/// Session-length shape: lognormal with this sigma around the mean.
constexpr double kSessionSigma = 0.8;
/// Within-session gaps: lognormal with this median and sigma, clamped
/// into the paper's observed 100–5000 ms band.
constexpr double kGapMedian = 900.0;
constexpr double kGapSigma = 0.9;
constexpr util::time_ms kMinInterarrival = 100.0;
constexpr util::time_ms kMaxInterarrival = 5000.0;

/// Reused storage for synthesizing one participant at a time.  A session
/// drawn in hour h starts in [h, h + 1 h), so once hour h's sessions are
/// drawn every event before h + 1 h is final: only the sessions that run
/// past that boundary are ever held, never the whole participant.
struct synthesis_buffers {
  /// The current hour's sessions, each an ascending run, back to back.
  std::vector<util::time_ms> sessions;
  /// [begin, end) of each non-empty run in `sessions`.
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  /// Events drawn but not yet final, ascending.
  std::vector<util::time_ms> pending;
};

/// Merges the ascending run [first, last) into the ascending `pending`,
/// from the back: a run that starts at or after pending's last event is
/// appended, and only the pending events it overlaps move.
void merge_run(std::vector<util::time_ms>& pending,
               const util::time_ms* first, const util::time_ms* last) {
  std::size_t i = pending.size();
  pending.resize(i + static_cast<std::size_t>(last - first));
  std::size_t k = pending.size();
  while (last != first) {
    if (i > 0 && pending[i - 1] > last[-1]) {
      pending[--k] = pending[--i];
    } else {
      pending[--k] = *--last;
    }
  }
}

/// Draws one participant's study and hands `emit` every event, in
/// ascending order, as spans of events that are final.  The rng draws are
/// those of a plain session-by-session synthesis, in the same order.
template <class Emit>
void synthesize(const usage_study_config& config, util::rng& rng,
                synthesis_buffers& buffers, Emit&& emit) {
  auto& [sessions, runs, pending] = buffers;
  pending.clear();
  const auto total_days = static_cast<std::size_t>(config.days);
  for (std::size_t day = 0; day < total_days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double weight = diurnal_activity(hour + 0.5);
      if (weight <= 0.0) continue;
      const double expected_sessions = kSessionsPerActiveHour * weight;
      // Poisson number of session starts this hour (inverse-CDF draw).
      std::size_t count = 0;
      double p = std::exp(-expected_sessions);
      double cumulative = p;
      const double u = rng.uniform();
      while (u > cumulative && count < 50) {
        ++count;
        p *= expected_sessions / static_cast<double>(count);
        cumulative += p;
      }
      const double hour_index = static_cast<double>(day) * 24.0 + hour;
      sessions.clear();
      runs.clear();
      for (std::size_t s = 0; s < count; ++s) {
        const util::time_ms session_start =
            util::hours(hour_index) + rng.uniform(0.0, util::hours(1.0));
        // Session length: lognormal around the configured mean.
        const double mu = std::log(kMeanSessionLength) -
                          kSessionSigma * kSessionSigma / 2.0;
        const util::time_ms length = rng.lognormal(mu, kSessionSigma);
        util::time_ms t = session_start;
        const util::time_ms session_end = session_start + length;
        const std::size_t begin = sessions.size();
        while (t < session_end) {
          sessions.push_back(t);
          // Within-session gaps: lognormal body landing mostly inside the
          // paper's 100–5000 ms band.
          const double gap =
              std::clamp(rng.lognormal(std::log(kGapMedian), kGapSigma),
                         kMinInterarrival, kMaxInterarrival);
          t += gap;
        }
        if (sessions.size() > begin) runs.emplace_back(begin, sessions.size());
      }
      // In order of their starts, most runs land after everything pending
      // and append; only overlapping sessions interleave.
      std::sort(runs.begin(), runs.end(),
                [&sessions](const auto& a, const auto& b) {
                  return sessions[a.first] < sessions[b.first];
                });
      for (const auto& [begin, end] : runs) {
        merge_run(pending, sessions.data() + begin, sessions.data() + end);
      }
      const auto final_end = std::lower_bound(
          pending.begin(), pending.end(), util::hours(hour_index + 1.0));
      emit(std::span<const util::time_ms>{pending.begin(), final_end});
      pending.erase(pending.begin(), final_end);
    }
  }
  emit(std::span<const util::time_ms>{pending});
}

/// Standard normal CDF.
double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

/// An upper bound on the expected number of events one study draws, and
/// so on its in-band gaps (at most one per consecutive-event pair).
/// Sessions: Poisson with mean kSessionsPerActiveHour·w per active hour,
/// so S = Σ_h 3·w(h + ½) per day (the 50-session cap only lowers it).
/// Events per session: a session of length L pushes one event per gap
/// drawn and stops at the first partial sum ≥ L, which overshoots L by
/// less than one gap, so by Wald's identity E[events]·E[G] < E[L] + 5000.
/// E[G] is the clamped lognormal's mean: 100·P(X < 100) + 5000·P(X > 5000)
/// plus e^(μ+σ²/2)·(Φ((ln 5000 − μ − σ²)/σ) − Φ((ln 100 − μ − σ²)/σ)).
/// For the default study this is 2.26M.  Seeds 1, 2, 3, 9 and 10 draw
/// 2.13–2.20M gaps (mean 2.16M, sd 1.1%), so the bound sits ~4 sd above
/// their mean and within 1.07x of each.
std::size_t expected_gap_bound(const usage_study_config& config) {
  double sessions_per_day = 0.0;
  for (int hour = 0; hour < 24; ++hour) {
    sessions_per_day += kSessionsPerActiveHour * diurnal_activity(hour + 0.5);
  }
  const double mu = std::log(kGapMedian);
  const double var = kGapSigma * kGapSigma;
  const auto z = [&](double x, double shift) {
    return (std::log(x) - mu - shift) / kGapSigma;
  };
  const double mean_gap =
      kMinInterarrival * normal_cdf(z(kMinInterarrival, 0.0)) +
      kMaxInterarrival * (1.0 - normal_cdf(z(kMaxInterarrival, 0.0))) +
      std::exp(mu + var / 2.0) * (normal_cdf(z(kMaxInterarrival, var)) -
                                  normal_cdf(z(kMinInterarrival, var)));
  const double events_per_session =
      (kMeanSessionLength + kMaxInterarrival) / mean_gap;
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(config.participants) *
                static_cast<double>(static_cast<std::size_t>(config.days)) *
                sessions_per_day *
                events_per_session));
}
}  // namespace

double diurnal_activity(double hour_of_day) noexcept {
  // Asleep at night; usage builds over the morning, dips mid-afternoon,
  // peaks in the evening — the canonical smartphone usage curve.
  if (hour_of_day < 7.0 || hour_of_day >= 24.0) return 0.0;
  auto bump = [hour_of_day](double center, double width, double height) {
    const double d = hour_of_day - center;
    return height * std::exp(-d * d / (2.0 * width * width));
  };
  const double w = bump(9.5, 1.8, 0.55) + bump(13.0, 2.2, 0.6) +
                   bump(20.5, 2.6, 1.0);
  return std::min(w, 1.0);
}

std::vector<util::time_ms> synthesize_participant_events(
    const usage_study_config& config, util::rng& rng) {
  std::vector<util::time_ms> events;
  synthesis_buffers buffers;
  synthesize(config, rng, buffers,
             [&events](std::span<const util::time_ms> ready) {
               events.insert(events.end(), ready.begin(), ready.end());
             });
  return events;
}

std::vector<std::uint16_t> study_interarrivals(const usage_study_config& config,
                                               util::rng& rng) {
  // One participant at a time, through reused buffers, straight into the
  // one gap array; growth past the bound stays correct, only slower.
  std::vector<std::uint16_t> gaps;
  gaps.reserve(expected_gap_bound(config));
  synthesis_buffers buffers;
  for (std::size_t participant = 0; participant < config.participants;
       ++participant) {
    util::rng stream = rng.fork();
    bool first = true;
    util::time_ms previous = 0.0;
    synthesize(config, stream, buffers,
               [&](std::span<const util::time_ms> ready) {
                 for (const util::time_ms t : ready) {
                   const double gap = t - previous;
                   // Gaps longer than the band are between-session idle
                   // time, which the paper removes; shorter ones are
                   // clock-resolution artifacts.  Kept gaps are stored to
                   // the nearest ms: adding a half and truncating rounds
                   // the positive in-band gap without a libm call.
                   if (!first && gap >= kMinInterarrival &&
                       gap <= kMaxInterarrival) {
                     gaps.push_back(static_cast<std::uint16_t>(gap + 0.5));
                   }
                   first = false;
                   previous = t;
                 }
               });
  }
  return gaps;
}

util::empirical_distribution study_interarrival_distribution(
    const usage_study_config& config, std::uint64_t seed) {
  util::rng rng{seed};
  return util::empirical_distribution{study_interarrivals(config, rng)};
}

}  // namespace mca::client
