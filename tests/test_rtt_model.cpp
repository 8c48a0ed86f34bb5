#include "net/rtt_model.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/operators.h"
#include "util/stats.h"

namespace mca::net {
namespace {

TEST(MixtureStats, PureLognormalMoments) {
  rtt_model_params p;
  p.log_mu = std::log(50.0);
  p.log_sigma = 1.0;
  p.spike_probability = 0.0;
  EXPECT_NEAR(mixture_median(p), 50.0, 0.1);
  EXPECT_NEAR(mixture_mean(p), 50.0 * std::exp(0.5), 0.1);
}

TEST(MixtureStats, SpikesRaiseMeanAndSd) {
  rtt_model_params base;
  base.log_mu = std::log(50.0);
  base.log_sigma = 0.8;
  rtt_model_params spiky = base;
  spiky.spike_probability = 0.05;
  spiky.spike_min_ms = 500.0;
  spiky.spike_max_ms = 2'000.0;
  EXPECT_GT(mixture_mean(spiky), mixture_mean(base));
  EXPECT_GT(mixture_stddev(spiky), mixture_stddev(base));
  // Median barely moves (spikes are rare and far in the tail).
  EXPECT_NEAR(mixture_median(spiky), mixture_median(base),
              mixture_median(base) * 0.1);
}

TEST(MixtureStats, AnalyticMatchesMonteCarlo) {
  rtt_model_params p;
  p.log_mu = std::log(40.0);
  p.log_sigma = 1.1;
  p.spike_probability = 0.03;
  p.spike_min_ms = 300.0;
  p.spike_max_ms = 3'000.0;
  rtt_model model{p};
  util::rng rng{123};
  std::vector<double> samples;
  for (int i = 0; i < 400'000; ++i) samples.push_back(model.sample(rng));
  const auto s = util::summary_of(samples);
  EXPECT_NEAR(s.mean, mixture_mean(p), mixture_mean(p) * 0.03);
  EXPECT_NEAR(s.median, mixture_median(p), mixture_median(p) * 0.03);
  EXPECT_NEAR(s.stddev, mixture_stddev(p), mixture_stddev(p) * 0.08);
}

TEST(FitRtt, RejectsNonPositiveTargets) {
  EXPECT_THROW(fit_rtt_params({0.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(fit_rtt_params({1.0, -1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(fit_rtt_params({1.0, 1.0, 0.0}), std::invalid_argument);
}

TEST(FitRtt, OperatorFitsPinnedBitForBit) {
  // A fit is a pure function of its published target, so all six operator
  // fits are pinned exactly: a change to the grid, the median solve or the
  // error metric names the fit and the field it moved.  beta LTE is
  // default_lte_model's link, behind every closed-loop run.
  struct pinned_fit {
    const char* name;
    technology tech;
    rtt_model_params params;  // log_mu, log_sigma, spike p, min, max
  };
  const pinned_fit pins[] = {
      {"alpha", technology::threeg,
       {0x1.f4e5f61eb5ae2p+1, 0x1.22acd9e83e426p+0,
        0x1.a5cb9b1a78264p-7, 0x1.32p+7, 0x1.3ecp+12}},
      {"alpha", technology::lte,
       {0x1.c2ec3766d72ecp+1, 0x1.ba5e353f7cedap-2,
        0x1.a81ecd4aa10e1p-8, 0x1.98p+6, 0x1.20dep+10}},
      {"beta", technology::threeg,
       {0x1.052f6d7579764p+2, 0x1.2460aa64c2f83p+0,
        0x1.2e3686a4ca4f3p-7, 0x1.68p+7, 0x1.77p+12}},
      {"beta", technology::lte,
       {0x1.9bc6bd2fbf1c4p+1, 0x1.89f559b3d07c7p-1,
        0x1.fc3b4f6167232p-10, 0x1.2cp+6, 0x1.388p+11}},
      {"gamma", technology::threeg,
       {0x1.015f66bdb9d6cp+2, 0x1.44faacd9e83e4p+0,
        0x1.40d23d4f15e7cp-9, 0x1.5p+7, 0x1.3bp+13}},
      {"gamma", technology::lte,
       {0x1.a5ab6aa659374p+1, 0x1.c1d14e3bcd35ap-1,
        0x1.6edeb92685587p-10, 0x1.44p+6, 0x1.a5ep+11}},
  };
  for (const auto& pin : pins) {
    const auto& op = operator_by_name(pin.name);
    const auto fit = fit_rtt_params(pin.tech == technology::threeg ? op.threeg
                                                                   : op.lte);
    const std::string label = std::string{pin.name} + "-" + to_string(pin.tech);
    EXPECT_EQ(fit.log_mu, pin.params.log_mu) << label;
    EXPECT_EQ(fit.log_sigma, pin.params.log_sigma) << label;
    EXPECT_EQ(fit.spike_probability, pin.params.spike_probability) << label;
    EXPECT_EQ(fit.spike_min_ms, pin.params.spike_min_ms) << label;
    EXPECT_EQ(fit.spike_max_ms, pin.params.spike_max_ms) << label;
  }
}

/// Property sweep: calibration must hit every published operator target
/// (all six mean/median/SD triples of Fig. 11) within 5%.
struct fit_case {
  std::string label;
  rtt_target_stats target;
};

class FitOperators : public ::testing::TestWithParam<fit_case> {};

TEST_P(FitOperators, CalibratesWithinFivePercent) {
  const auto& target = GetParam().target;
  const auto params = fit_rtt_params(target);
  EXPECT_LT(fit_error(params, target), 0.05) << GetParam().label;
  EXPECT_NEAR(mixture_mean(params), target.mean_ms, target.mean_ms * 0.05);
  EXPECT_NEAR(mixture_median(params), target.median_ms,
              target.median_ms * 0.05);
  EXPECT_NEAR(mixture_stddev(params), target.stddev_ms,
              target.stddev_ms * 0.05);
}

std::vector<fit_case> all_operator_targets() {
  std::vector<fit_case> cases;
  for (const auto& op : netradar_operators()) {
    cases.push_back({op.name + "-3G", op.threeg});
    cases.push_back({op.name + "-LTE", op.lte});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PaperTargets, FitOperators,
                         ::testing::ValuesIn(all_operator_targets()),
                         [](const auto& param_info) {
                           std::string name = param_info.param.label;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RttModel, DiurnalFactorAveragesToOne) {
  rtt_model_params p;
  p.log_mu = std::log(50.0);
  p.log_sigma = 0.5;
  rtt_model model{p, 0.3};
  double total = 0.0;
  const int steps = 24 * 60;
  for (int i = 0; i < steps; ++i) {
    total += model.diurnal_factor(24.0 * i / steps);
  }
  EXPECT_NEAR(total / steps, 1.0, 1e-6);
}

TEST(RttModel, BusyHoursAreSlower) {
  rtt_model_params p;
  p.log_mu = std::log(50.0);
  p.log_sigma = 0.5;
  rtt_model model{p, 0.3};
  EXPECT_GT(model.diurnal_factor(20.0), model.diurnal_factor(3.0));
  EXPECT_GT(model.diurnal_factor(9.0), model.diurnal_factor(3.0));
}

TEST(RttModel, ZeroAmplitudeIsFlat) {
  rtt_model_params p;
  p.log_mu = std::log(50.0);
  p.log_sigma = 0.5;
  rtt_model model{p, 0.0};
  EXPECT_NEAR(model.diurnal_factor(3.0), model.diurnal_factor(20.0), 1e-12);
}

TEST(RttModel, SamplesArePositive) {
  rtt_model model{fit_rtt_params({128.0, 51.0, 362.0}), 0.25};
  util::rng rng{9};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GT(model.sample(rng, 12.0), 0.0);
  }
}

TEST(Operators, PaperConstantsPresent) {
  const auto& ops = netradar_operators();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].name, "alpha");
  EXPECT_DOUBLE_EQ(ops[0].threeg.mean_ms, 128.0);
  EXPECT_DOUBLE_EQ(ops[1].lte.mean_ms, 36.0);
  EXPECT_DOUBLE_EQ(ops[2].threeg.stddev_ms, 379.0);
  EXPECT_EQ(ops[1].samples_lte, 493'956u);
}

TEST(Operators, LookupByName) {
  EXPECT_EQ(operator_by_name("gamma").name, "gamma");
  EXPECT_THROW(operator_by_name("delta"), std::out_of_range);
}

TEST(Operators, TechnologyNames) {
  EXPECT_STREQ(to_string(technology::threeg), "3G");
  EXPECT_STREQ(to_string(technology::lte), "LTE");
}

TEST(Operators, DefaultLteModelIsFast) {
  auto model = default_lte_model();
  util::rng rng{4};
  util::running_stats s;
  for (int i = 0; i < 50'000; ++i) s.add(model.sample(rng, 12.0));
  // Operator beta's LTE mean is 36 ms.
  EXPECT_NEAR(s.mean(), 36.0, 4.0);
}

}  // namespace
}  // namespace mca::net
