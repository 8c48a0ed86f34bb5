#include "core/classifier.h"

#include <gtest/gtest.h>

#include <vector>

namespace mca::core {
namespace {

classifier_config fast_config() {
  classifier_config config;
  config.rounds_per_level = 3;
  config.load_levels = {1, 10, 20, 30, 40, 60, 80, 100};
  config.seed = 99;
  return config;
}

class ClassifierTest : public ::testing::Test {
 protected:
  tasks::task_pool pool_;
};

TEST_F(ClassifierTest, CharacterizationCurveCoversLevels) {
  const auto profile = characterize_type(cloud::type_by_name("t2.nano"),
                                         pool_, fast_config());
  EXPECT_EQ(profile.type_name, "t2.nano");
  EXPECT_EQ(profile.curve.size(), fast_config().load_levels.size());
  EXPECT_GT(profile.solo_mean_ms, 0.0);
}

TEST_F(ClassifierTest, ResponseTimeDegradesWithLoadOnNarrowTypes) {
  const auto profile = characterize_type(cloud::type_by_name("t2.nano"),
                                         pool_, fast_config());
  // Single-core server: 100 concurrent users must be far slower than 1.
  EXPECT_GT(profile.curve.back().mean_ms, profile.curve.front().mean_ms * 10);
}

TEST_F(ClassifierTest, WideTypesBarelyDegrade) {
  const auto profile = characterize_type(cloud::type_by_name("m4.10xlarge"),
                                         pool_, fast_config());
  // 40 cores: even 100 users only ~2.5x the solo time.
  EXPECT_LT(profile.curve.back().mean_ms, profile.curve.front().mean_ms * 5);
}

TEST_F(ClassifierTest, CapacityGrowsWithInstanceSize) {
  const auto nano = characterize_type(cloud::type_by_name("t2.nano"), pool_,
                                      fast_config());
  const auto large = characterize_type(cloud::type_by_name("t2.large"), pool_,
                                       fast_config());
  const auto m4 = characterize_type(cloud::type_by_name("m4.10xlarge"), pool_,
                                    fast_config());
  EXPECT_LT(nano.capacity_users, large.capacity_users);
  EXPECT_LT(large.capacity_users, m4.capacity_users);
  // Ks is expressed in requests/minute and equals the user capacity under
  // the paper's one-request-per-user-per-minute benchmark.
  EXPECT_DOUBLE_EQ(nano.capacity_requests_per_min,
                   static_cast<double>(nano.capacity_users));
}

TEST_F(ClassifierTest, ValidationErrors) {
  classifier_config no_levels = fast_config();
  no_levels.load_levels.clear();
  EXPECT_THROW(characterize_type(cloud::type_by_name("t2.nano"), pool_,
                                 no_levels),
               std::invalid_argument);
  classifier_config no_rounds = fast_config();
  no_rounds.rounds_per_level = 0;
  EXPECT_THROW(characterize_type(cloud::type_by_name("t2.nano"), pool_,
                                 no_rounds),
               std::invalid_argument);
  EXPECT_THROW(classify({}, pool_, fast_config()), std::invalid_argument);
}

TEST_F(ClassifierTest, CreditThrottlingWouldCorruptCharacterization) {
  // Why the credit model is off by default (bench/ablation_credits checks
  // the choice): with credits enabled and a near-empty bank, a burstable
  // type characterizes far below its paper-mode capacity.
  auto config = fast_config();
  config.rounds_per_level = 4;
  classifier_config throttled = config;
  throttled.instance_options.enable_cpu_credits = true;
  throttled.instance_options.initial_credits_core_ms = 100.0;
  const auto normal =
      characterize_type(cloud::type_by_name("t2.nano"), pool_, config);
  const auto starved =
      characterize_type(cloud::type_by_name("t2.nano"), pool_, throttled);
  EXPECT_LT(starved.capacity_users, normal.capacity_users);
  EXPECT_GT(starved.curve.back().mean_ms, normal.curve.back().mean_ms * 2.0);
}

class FullCatalogClassification : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Classifying the full catalog stresses every type; do it once.
    tasks::task_pool pool;
    map_ = new acceleration_map{
        classify(cloud::ec2_catalog(), pool, fast_config())};
  }
  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
  }
  static const acceleration_map* map_;
};

const acceleration_map* FullCatalogClassification::map_ = nullptr;

TEST_F(FullCatalogClassification, MicroIsDemotedToGroupZero) {
  // The paper's Fig. 6 anomaly: micro costs more than nano yet performs
  // worse under load, so it lands in group 0.
  EXPECT_EQ(map_->group_of("t2.micro"), 0u);
}

TEST_F(FullCatalogClassification, NanoAndSmallShareLevelOne) {
  EXPECT_EQ(map_->group_of("t2.nano"), 1u);
  EXPECT_EQ(map_->group_of("t2.small"), 1u);
}

TEST_F(FullCatalogClassification, MediumAndLargeShareALevel) {
  EXPECT_EQ(map_->group_of("t2.medium"), map_->group_of("t2.large"));
  EXPECT_GT(map_->group_of("t2.medium"), map_->group_of("t2.nano"));
}

TEST_F(FullCatalogClassification, M4FamilySharesALevel) {
  EXPECT_EQ(map_->group_of("m4.4xlarge"), map_->group_of("m4.10xlarge"));
  EXPECT_GT(map_->group_of("m4.4xlarge"), map_->group_of("t2.large"));
}

TEST_F(FullCatalogClassification, ComputeOptimizedTopsTheLevels) {
  // c4.8xlarge "surpassed our previous acceleration levels" -> level 4.
  EXPECT_EQ(map_->group_of("c4.8xlarge"), map_->max_group());
  EXPECT_GT(map_->group_of("c4.8xlarge"), map_->group_of("m4.10xlarge"));
}

TEST_F(FullCatalogClassification, ProducesThreeRegularLevelsPlusAnomalyAndC4) {
  // Groups: 0 (micro), 1 (nano/small), 2 (medium/large), 3 (m4s), 4 (c4).
  EXPECT_EQ(map_->group_count(), 5u);
}

TEST_F(FullCatalogClassification, CapacityIncreasesWithLevel) {
  for (group_id g = 2; g <= map_->max_group(); ++g) {
    EXPECT_GE(map_->groups()[g].capacity_users,
              map_->groups()[g - 1].capacity_users)
        << "group " << g;
  }
}

TEST_F(FullCatalogClassification, EveryCatalogTypeIsClassified) {
  for (const auto& type : cloud::ec2_catalog()) {
    EXPECT_NO_THROW(map_->group_of(type.name)) << type.name;
  }
}

}  // namespace
}  // namespace mca::core
