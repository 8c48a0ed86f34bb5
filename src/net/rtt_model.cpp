#include "net/rtt_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace mca::net {
namespace {

double lognormal_cdf(double x, double mu, double sigma) {
  if (x <= 0.0) return 0.0;
  return 0.5 * std::erfc(-(std::log(x) - mu) / (sigma * std::numbers::sqrt2));
}

double uniform_cdf(double x, double lo, double hi) {
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  return (x - lo) / (hi - lo);
}

double mixture_cdf(double x, const rtt_model_params& p) {
  const double body = lognormal_cdf(x, p.log_mu, p.log_sigma);
  if (p.spike_probability <= 0.0) return body;
  const double tail = uniform_cdf(x, p.spike_min_ms, p.spike_max_ms);
  return (1.0 - p.spike_probability) * body + p.spike_probability * tail;
}

}  // namespace

double mixture_mean(const rtt_model_params& p) {
  const double body = std::exp(p.log_mu + p.log_sigma * p.log_sigma / 2.0);
  const double tail = (p.spike_min_ms + p.spike_max_ms) / 2.0;
  return (1.0 - p.spike_probability) * body + p.spike_probability * tail;
}

double mixture_stddev(const rtt_model_params& p) {
  const double s2 = p.log_sigma * p.log_sigma;
  const double body_second_moment = std::exp(2.0 * p.log_mu + 2.0 * s2);
  const double spread = p.spike_max_ms - p.spike_min_ms;
  const double tail_mean = (p.spike_min_ms + p.spike_max_ms) / 2.0;
  const double tail_second_moment =
      tail_mean * tail_mean + spread * spread / 12.0;
  const double mean = mixture_mean(p);
  const double second_moment =
      (1.0 - p.spike_probability) * body_second_moment +
      p.spike_probability * tail_second_moment;
  return std::sqrt(std::max(second_moment - mean * mean, 0.0));
}

double mixture_median(const rtt_model_params& p) {
  double lo = 0.0;
  double hi = std::max(std::exp(p.log_mu + 6.0 * p.log_sigma), p.spike_max_ms);
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (mixture_cdf(mid, p) < 0.5) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

double fit_error(const rtt_model_params& p, const rtt_target_stats& target) {
  const double em = std::abs(mixture_mean(p) - target.mean_ms) / target.mean_ms;
  const double ed =
      std::abs(mixture_median(p) - target.median_ms) / target.median_ms;
  const double es =
      std::abs(mixture_stddev(p) - target.stddev_ms) / target.stddev_ms;
  return std::max({em, ed, es});
}

namespace {

/// Chooses log_mu so the mixture median equals the target.  The mixture
/// CDF is continuous and strictly increasing (the lognormal body weighs at
/// least 0.7: spike_probability is clamped to <= 0.3), so the median lies
/// below the target exactly when CDF(target) > 1/2, and CDF(target) falls
/// strictly as log_mu rises; 80 bisection steps on log_mu suffice.
void solve_mu_for_median(rtt_model_params& p, double target_median) {
  double lo = std::log(target_median) - 4.0;
  double hi = std::log(target_median) + 2.0;
  for (int iter = 0; iter < 80; ++iter) {
    p.log_mu = (lo + hi) / 2.0;
    if (mixture_cdf(target_median, p) > 0.5) {
      lo = p.log_mu;
    } else {
      hi = p.log_mu;
    }
  }
}

/// One grid cell's result: the trial parameters and their fit error.
struct fit_candidate {
  rtt_model_params params{};
  double err = std::numeric_limits<double>::infinity();
};

}  // namespace

rtt_model_params fit_rtt_params(const rtt_target_stats& target) {
  if (target.mean_ms <= 0.0 || target.median_ms <= 0.0 ||
      target.stddev_ms <= 0.0) {
    throw std::invalid_argument{"fit_rtt_params: targets must be positive"};
  }

  // Search over (sigma, spike probability, spike upper edge); for every
  // candidate the location log_mu is solved so the median is exact, which
  // reduces the problem to matching mean and SD.  Coarse grid, then three
  // refinement passes around the incumbent.  The scan keeps the first
  // cell that strictly lowers the error, so ties go to the earlier cell.
  fit_candidate best;
  auto consider = [&](double sigma, double p_spike, double max_mult) {
    fit_candidate c;
    c.params.log_sigma = sigma;
    c.params.spike_probability = p_spike;
    c.params.spike_min_ms = 3.0 * target.median_ms;
    c.params.spike_max_ms = max_mult * target.median_ms;
    solve_mu_for_median(c.params, target.median_ms);
    c.err = fit_error(c.params, target);
    if (c.err < best.err) best = c;
  };
  static constexpr std::array<double, 8> kSpikeProbs = {
      0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.07, 0.12};
  static constexpr std::array<double, 6> kMaxMults = {6.0,  12.0,  25.0,
                                                      50.0, 100.0, 180.0};
  for (double sigma = 0.2; sigma <= 1.8; sigma += 0.1) {
    for (double p_spike : kSpikeProbs) {
      for (double max_mult : kMaxMults) {
        consider(sigma, p_spike, max_mult);
      }
    }
  }

  double sigma_radius = 0.08;
  double p_radius = 0.35;    // relative
  double mult_radius = 0.5;  // relative
  for (int round = 0; round < 3; ++round) {
    const rtt_model_params centre = best.params;
    const double centre_mult = centre.spike_max_ms / target.median_ms;
    for (int i = -4; i <= 4; ++i) {
      const double sigma =
          std::clamp(centre.log_sigma + sigma_radius * i / 4.0, 0.05, 2.5);
      for (int j = -4; j <= 4; ++j) {
        const double p_spike = std::clamp(
            centre.spike_probability * (1.0 + p_radius * j / 4.0), 0.0, 0.3);
        for (int k = -2; k <= 2; ++k) {
          const double max_mult = std::clamp(
              centre_mult * (1.0 + mult_radius * k / 2.0), 4.0, 400.0);
          consider(sigma, p_spike, max_mult);
        }
      }
    }
    sigma_radius *= 0.35;
    p_radius *= 0.35;
    mult_radius *= 0.35;
  }
  return best.params;
}

rtt_model::rtt_model(rtt_model_params params, double diurnal_amplitude)
    : params_{params}, diurnal_amplitude_{diurnal_amplitude} {
  // Normalize the busy-hour modulation so its 24h mean is exactly 1.
  double total = 0.0;
  constexpr int kSteps = 24 * 60;
  diurnal_norm_ = 1.0;
  for (int i = 0; i < kSteps; ++i) {
    total += diurnal_factor(24.0 * i / kSteps);
  }
  diurnal_norm_ = total / kSteps;
}

double rtt_model::diurnal_factor(double hour_of_day) const noexcept {
  // Two Gaussian congestion bumps: morning commute (09:00) and evening
  // streaming peak (20:00), with wrap-around distance on the 24h circle.
  auto bump = [hour_of_day](double center, double width) {
    double d = std::abs(hour_of_day - center);
    d = std::min(d, 24.0 - d);
    return std::exp(-d * d / (2.0 * width * width));
  };
  const double shape =
      1.0 + diurnal_amplitude_ * (0.6 * bump(9.0, 2.5) + bump(20.0, 3.0));
  return shape / diurnal_norm_;
}

double rtt_model::sample(util::rng& rng, double hour_of_day) const {
  double rtt;
  if (rng.bernoulli(params_.spike_probability)) {
    rtt = rng.uniform(params_.spike_min_ms, params_.spike_max_ms);
  } else {
    rtt = rng.lognormal(params_.log_mu, params_.log_sigma);
  }
  return rtt * diurnal_factor(hour_of_day);
}

}  // namespace mca::net
