// Synthetic smartphone usage study.
//
// The paper deployed a tracking app on 6 participants' phones for 3 months
// and distilled one number range out of it: within active sessions (nights
// removed), offloadable app events arrive 100–5000 ms apart.  This module
// synthesizes an equivalent study — diurnal session starts, lognormal
// session lengths, lognormal within-session event gaps — and exposes the
// pooled inter-arrival sample in exactly the form the paper feeds to its
// load generator.  The pool is data, not an order: a draw picks one gap
// uniformly by index, so the gaps are never sorted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/empirical.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace mca::client {

/// Size of the synthetic study (defaults reproduce the paper's).  Each
/// participant starts 3 app sessions per active (daytime) hour at peak
/// activity, a session lasts 2.5 minutes on average, and within-session
/// event gaps are clipped into the paper's observed 100–5000 ms band.
struct usage_study_config {
  std::size_t participants = 6;
  double days = 90.0;  ///< 3 months
};

/// App-event timestamps (ms since study start) for one participant, in
/// ascending order: the same bytes std::sort gives.  Each session is an
/// ascending run; the runs are merged an hour at a time, in order of their
/// starts, so only overlapping sessions interleave and no sort runs.
/// Nights (00:00–07:00) have essentially no activity.
std::vector<util::time_ms> synthesize_participant_events(
    const usage_study_config& config, util::rng& rng);

/// Pooled within-session inter-arrival samples across all participants,
/// inside the 100–5000 ms band (long idle gaps between sessions removed,
/// as the paper removes inactive periods), in participant then time order.
/// The band test reads the exact gap; the stored value is that gap rounded
/// to the nearest whole millisecond (a tracker's resolution), 2 bytes a
/// gap.  Participants are synthesized one at a time and streamed into
/// this one array, which is reserved once at an upper bound on the
/// expected count (~2.2M gaps, 4.4 MB, for the default study, with the
/// capacity within 1.1x of the size); besides it the synthesis holds only
/// the sessions that run past the current hour.
std::vector<std::uint16_t> study_interarrivals(const usage_study_config& config,
                                               util::rng& rng);

/// The study distilled into a samplable distribution: the gaps are moved
/// into it, not copied or sorted, so the gap array is the only large
/// allocation from synthesis to sampling, and its samples are the
/// study_interarrivals bytes in synthesis order.
util::empirical_distribution study_interarrival_distribution(
    const usage_study_config& config, std::uint64_t seed);

/// Diurnal session-start weight at an hour of day: ~0 at night, rising
/// through the day to an evening peak (normalized to max 1).
double diurnal_activity(double hour_of_day) noexcept;

}  // namespace mca::client
