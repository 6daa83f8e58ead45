#include <gtest/gtest.h>

#include <string>

#include "nn/serialize.hpp"
#include "service/job.hpp"
#include "tests/core/campaign_helpers.hpp"
#include "util/error.hpp"

namespace sce::service {
namespace {

JobConfig tiny_job_config() {
  JobConfig config;
  config.dataset.kind = "mnist-like";
  config.dataset.num_classes = 4;
  config.dataset.examples_per_class = 4;
  config.dataset.crop = 12;
  config.samples_per_category = 4;
  return config;
}

TEST(JobConfig, ValidatesCleanConfig) {
  EXPECT_NO_THROW(tiny_job_config().validate());
}

TEST(JobConfig, RejectsWithStructuredFields) {
  JobConfig config = tiny_job_config();
  config.alpha = 1.5;
  try {
    config.validate();
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.domain(), "job");
    EXPECT_EQ(e.field(), "alpha");
  }
}

TEST(JobConfig, ComposesCampaignLevelValidation) {
  JobConfig config = tiny_job_config();
  config.samples_per_category = 0;  // a campaign-level invariant
  try {
    config.validate();
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.domain(), "campaign");
  }
}

TEST(JobConfig, AdmissionCapsAreInclusive) {
  JobConfig config = tiny_job_config();
  config.num_shards = kMaxJobShards;
  config.num_threads = kMaxJobThreads;
  config.dataset.examples_per_class = kMaxExamplesPerClass;
  config.samples_per_category = kMaxSamplesPerCategory;
  config.warmup_measurements = kMaxWarmupMeasurements;
  EXPECT_NO_THROW(config.validate());
  for (auto over : {+[](JobConfig& c) { ++c.num_shards; },
                    +[](JobConfig& c) { ++c.num_threads; },
                    +[](JobConfig& c) { ++c.dataset.examples_per_class; },
                    +[](JobConfig& c) { ++c.samples_per_category; },
                    +[](JobConfig& c) { ++c.warmup_measurements; }}) {
    JobConfig bad = config;
    over(bad);
    EXPECT_THROW(bad.validate(), ValidationError);
  }
}

void expect_categories_rejected(const JobConfig& config) {
  try {
    config.validate();
    ADD_FAILURE() << "accepted " << config.categories.size()
                  << " categories";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.domain(), "job");
    EXPECT_EQ(e.field(), "categories");
  }
}

TEST(JobConfig, CategoryListIsCappedAndDistinct) {
  JobConfig config = tiny_job_config();
  config.dataset.num_classes = 10;
  config.categories.clear();
  for (int label = 0; label < static_cast<int>(kMaxCategories); ++label)
    config.categories.push_back(label);
  EXPECT_NO_THROW(config.validate());

  JobConfig longer = config;
  longer.categories.push_back(0);
  expect_categories_rejected(longer);

  JobConfig repeated = tiny_job_config();
  repeated.categories = {0, 1, 2, 1};
  expect_categories_rejected(repeated);
}

TEST(JobConfig, RepeatedLabelsCannotInflateTheMeasurementBudget) {
  // Every count field is capped, so the list length is what would
  // multiply the budget: 10000 samples x 200000 labels.
  std::string json = R"({"samples_per_category": 10000, "categories": [0)";
  for (int i = 1; i < 200000; ++i) json += ",0";
  json += "]}";
  const JobConfig config = job_config_from_json(json);
  ASSERT_EQ(config.categories.size(), 200000u);
  expect_categories_rejected(config);
}

TEST(JobConfig, RejectsOutOfRangeCategory) {
  JobConfig config = tiny_job_config();
  config.categories = {0, 7};  // only 4 classes
  EXPECT_THROW(config.validate(), ValidationError);
}

TEST(JobConfig, RejectsCropOnSequenceData) {
  JobConfig config = tiny_job_config();
  config.dataset.kind = "sequence-like";
  config.dataset.num_classes = 4;
  EXPECT_THROW(config.validate(), ValidationError);  // crop still 12
}

TEST(ConfigDigest, ExcludesSchedulingFields) {
  const JobConfig base = tiny_job_config();
  JobConfig scheduled = base;
  scheduled.priority = Priority::kHigh;
  scheduled.deadline = std::chrono::milliseconds(5000);
  scheduled.num_threads = 8;
  EXPECT_EQ(config_digest(base), config_digest(scheduled));
}

TEST(ConfigDigest, IncludesResultAffectingFields) {
  const JobConfig base = tiny_job_config();
  JobConfig more_samples = base;
  more_samples.samples_per_category = 5;
  EXPECT_NE(config_digest(base), config_digest(more_samples));

  JobConfig other_seed = base;
  other_seed.dataset.seed = 99;
  EXPECT_NE(config_digest(base), config_digest(other_seed));

  JobConfig sharded = base;
  sharded.num_shards = 2;
  EXPECT_NE(config_digest(base), config_digest(sharded));
}

TEST(JobConfig, JsonRoundTripPreservesEveryField) {
  JobConfig config = tiny_job_config();
  config.categories = {1, 3};
  config.kernel_mode = nn::KernelMode::kConstantFlow;
  config.num_shards = 2;
  config.num_threads = 3;
  config.warmup_measurements = 5;
  config.interleave_categories = false;
  config.alpha = 0.01;
  config.priority = Priority::kHigh;
  config.deadline = std::chrono::milliseconds(1234);

  const JobConfig round = job_config_from_json(job_config_to_json(config));
  EXPECT_EQ(job_config_to_json(round), job_config_to_json(config));
  EXPECT_EQ(round.priority, Priority::kHigh);
  EXPECT_EQ(round.deadline.count(), 1234);
  EXPECT_EQ(round.num_threads, 3u);
  EXPECT_EQ(config_digest(round), config_digest(config));
}

TEST(JobConfig, JsonRejectsUnknownKeys) {
  EXPECT_THROW(job_config_from_json("{\"bogus\":1}"), InvalidArgument);
}

TEST(JobConfig, JsonRefusesCountsThatWouldWrapOrTruncate) {
  // A negative count would wrap to 2^64-1 on a size_t cast, and a label
  // of 2^32 would truncate to 0 on an int cast and pass validation.
  const std::pair<std::string, std::string> cases[] = {
      {"samples_per_category", R"({"samples_per_category": -1})"},
      {"warmup_measurements", R"({"warmup_measurements": -1})"},
      {"num_shards", R"({"num_shards": -1})"},
      {"num_threads", R"({"num_threads": -5})"},
      {"categories", R"({"categories": [0, -1]})"},
      {"categories", R"({"categories": [4294967296]})"},
      {"dataset.examples_per_class",
       R"({"dataset": {"examples_per_class": -1}})"},
      {"dataset.num_classes", R"({"dataset": {"num_classes": -1}})"},
      {"dataset.crop", R"({"dataset": {"crop": -12}})"},
  };
  for (const auto& [field, json] : cases) {
    try {
      (void)job_config_from_json(json);
      ADD_FAILURE() << "accepted " << json;
    } catch (const ValidationError& e) {
      EXPECT_EQ(e.domain(), "job") << json;
      EXPECT_EQ(e.field(), field) << json;
    }
  }
  const JobConfig edge =
      job_config_from_json(R"({"categories": [0, 2147483647]})");
  EXPECT_EQ(edge.categories.back(), 2147483647);
  EXPECT_THROW(edge.validate(), ValidationError);  // not a label of 10
}

TEST(MakeDataset, MatchesTinyFixtureCrop) {
  DatasetSpec spec;
  spec.kind = "mnist-like";
  spec.seed = 4;
  spec.examples_per_class = 6;
  spec.num_classes = 4;
  spec.crop = 12;
  const data::Dataset cropped = make_dataset(spec);
  const data::Dataset fixture = core::testing::tiny_dataset(6, 4);
  ASSERT_EQ(cropped.size(), fixture.size());
  for (std::size_t i = 0; i < cropped.size(); ++i) {
    ASSERT_EQ(cropped[i].label, fixture[i].label);
    ASSERT_EQ(cropped[i].image.pixels(), fixture[i].image.pixels()) << i;
  }
}

TEST(DatasetInputShape, FollowsKindAndCrop) {
  DatasetSpec spec;
  spec.kind = "mnist-like";
  EXPECT_EQ(dataset_input_shape(spec),
            (std::vector<std::size_t>{1, 28, 28}));
  spec.crop = 12;
  EXPECT_EQ(dataset_input_shape(spec),
            (std::vector<std::size_t>{1, 12, 12}));
  spec.kind = "cifar-like";
  spec.crop = 0;
  EXPECT_EQ(dataset_input_shape(spec),
            (std::vector<std::size_t>{3, 32, 32}));
}

TEST(ModelDigest, StableAcrossCopiesAndSensitiveToWeights) {
  const nn::Sequential a = core::testing::tiny_model(7);
  const nn::Sequential b = core::testing::tiny_model(7);
  const nn::Sequential c = core::testing::tiny_model(8);
  EXPECT_EQ(nn::model_digest(a), nn::model_digest(b));
  EXPECT_NE(nn::model_digest(a), nn::model_digest(c));
  EXPECT_EQ(nn::model_digest(a).size(), 32u);
}

}  // namespace
}  // namespace sce::service
