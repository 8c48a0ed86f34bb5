#include "client/usage_trace.h"

#include <algorithm>
#include <cmath>

#include "util/float_sort.h"

namespace mca::client {

namespace {
/// Mean app sessions per active (daytime) hour per participant.
constexpr double kSessionsPerActiveHour = 3.0;
/// Mean session length.
constexpr util::time_ms kMeanSessionLength = util::minutes(2.5);
/// The paper's observed within-session inter-arrival band.
constexpr util::time_ms kMinInterarrival = 100.0;
constexpr util::time_ms kMaxInterarrival = 5000.0;
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
  const auto total_days = static_cast<std::size_t>(config.days);
  for (std::size_t day = 0; day < total_days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double weight = diurnal_activity(hour + 0.5);
      if (weight <= 0.0) continue;
      const double expected_sessions = kSessionsPerActiveHour * weight;
      // Poisson number of session starts this hour (inverse-CDF draw).
      std::size_t sessions = 0;
      double p = std::exp(-expected_sessions);
      double cumulative = p;
      const double u = rng.uniform();
      while (u > cumulative && sessions < 50) {
        ++sessions;
        p *= expected_sessions / static_cast<double>(sessions);
        cumulative += p;
      }
      for (std::size_t s = 0; s < sessions; ++s) {
        const util::time_ms session_start =
            util::hours(static_cast<double>(day) * 24.0 + hour) +
            rng.uniform(0.0, util::hours(1.0));
        // Session length: lognormal around the configured mean.
        const double sigma = 0.8;
        const double mu =
            std::log(kMeanSessionLength) - sigma * sigma / 2.0;
        const util::time_ms length = rng.lognormal(mu, sigma);
        util::time_ms t = session_start;
        const util::time_ms session_end = session_start + length;
        while (t < session_end) {
          events.push_back(t);
          // Within-session gaps: lognormal body landing mostly inside the
          // paper's 100–5000 ms band.
          const double gap = std::clamp(rng.lognormal(std::log(900.0), 0.9),
                                        kMinInterarrival,
                                        kMaxInterarrival);
          t += gap;
        }
      }
    }
  }
  util::sort_doubles(events);
  return events;
}

std::vector<double> study_interarrivals(const usage_study_config& config,
                                        util::rng& rng) {
  // Every participant's events first, so the gap array is allocated once,
  // at the count of consecutive-event pairs: within 1.1x of the gaps that
  // land in the band (a session's events are ~100 pairs, and only the pair
  // that spans two sessions usually falls outside).
  std::vector<std::vector<util::time_ms>> participants;
  participants.reserve(config.participants);
  std::size_t pairs = 0;
  for (std::size_t participant = 0; participant < config.participants;
       ++participant) {
    util::rng stream = rng.fork();
    const auto& events =
        participants.emplace_back(synthesize_participant_events(config, stream));
    if (!events.empty()) pairs += events.size() - 1;
  }
  std::vector<double> gaps;
  gaps.reserve(pairs);
  for (const auto& events : participants) {
    for (std::size_t i = 1; i < events.size(); ++i) {
      const double gap = events[i] - events[i - 1];
      // Gaps longer than the band are between-session idle time, which the
      // paper removes; shorter ones are clock-resolution artifacts.
      if (gap >= kMinInterarrival && gap <= kMaxInterarrival) {
        gaps.push_back(gap);
      }
    }
  }
  return gaps;
}

util::empirical_distribution study_interarrival_distribution(
    const usage_study_config& config, std::uint64_t seed) {
  util::rng rng{seed};
  return util::empirical_distribution{study_interarrivals(config, rng)};
}

}  // namespace mca::client
