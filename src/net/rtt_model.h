// Cellular round-trip-time models.
//
// The paper grounds its LTE assumption in the NetRadar dataset (Fig. 11),
// reporting per-operator mean / median / standard deviation for 3G and LTE.
// We model RTT as a lognormal body (typical radio latency) plus a sparse
// uniform "spike" tail (handover stalls, congestion events): exactly the
// long-tail structure that makes cellular means sit far above medians.
// `fit_rtt_params` numerically calibrates the mixture so its analytic
// mean / median / SD match a published target triple.
#pragma once

#include "util/rng.h"

namespace mca::net {

/// Published aggregate statistics to calibrate against (milliseconds).
struct rtt_target_stats {
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double stddev_ms = 0.0;
};

/// Lognormal-plus-spike mixture parameters.
struct rtt_model_params {
  double log_mu = 0.0;          ///< lognormal location (ln ms)
  double log_sigma = 1.0;       ///< lognormal shape
  double spike_probability = 0.0;
  double spike_min_ms = 0.0;    ///< uniform spike support
  double spike_max_ms = 0.0;
};

/// Analytic moments of the mixture (no sampling).
double mixture_mean(const rtt_model_params& p);
double mixture_stddev(const rtt_model_params& p);
/// Median via bisection on the mixture CDF.
double mixture_median(const rtt_model_params& p);

/// Calibrates mixture parameters to a target triple by coordinate grid
/// refinement on (log_sigma, spike_probability, spike_max): one serial
/// scan of a coarse grid, then three finer grids around the incumbent,
/// keeping the first cell with the lowest fit_error.  Each cell solves
/// log_mu so the median is exact (bisection on log_mu until the mixture
/// CDF at the target median is 1/2).  A pure function of `target`.
/// Throws std::invalid_argument on non-positive targets.
rtt_model_params fit_rtt_params(const rtt_target_stats& target);

/// Relative fitting error of `p` against `target` (max over the 3 stats).
double fit_error(const rtt_model_params& p, const rtt_target_stats& target);

/// A samplable RTT source with optional diurnal congestion modulation.
///
/// `diurnal_amplitude` scales two Gaussian busy-hour bumps (09:00, 20:00);
/// the modulation is mean-normalized so calibrated aggregate statistics are
/// preserved.
class rtt_model {
 public:
  explicit rtt_model(rtt_model_params params, double diurnal_amplitude = 0.0);

  /// Draws one RTT (ms) at the given local time of day (hours, [0,24)).
  double sample(util::rng& rng, double hour_of_day = 12.0) const;

  /// Deterministic congestion factor at an hour of day (mean ≈ 1 over 24h).
  double diurnal_factor(double hour_of_day) const noexcept;

 private:
  rtt_model_params params_;
  double diurnal_amplitude_;
  double diurnal_norm_;
};

}  // namespace mca::net
