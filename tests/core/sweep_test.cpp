// Record-once/replay-many sweep engine: bit-identity against the live
// rerun loop, thread-count invariance, component-class deduplication.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "hpc/simulated_pmu.hpp"
#include "campaign_helpers.hpp"
#include "util/error.hpp"

namespace sce::core {
namespace {

using testing::tiny_dataset;
using testing::tiny_model;

hpc::SimulatedPmuConfig quiet() {
  hpc::SimulatedPmuConfig cfg;
  cfg.environment = hpc::SimulatedPmuConfig::no_environment();
  return cfg;
}

/// A grid covering every behavioural family the engine special-cases:
/// cold/warm, pollution, random replacement (persistent victim RNG),
/// prefetching, predictor families, keyed environment noise.
std::vector<SweepPoint> family_grid() {
  std::vector<SweepPoint> grid;

  grid.push_back({"default", hpc::SimulatedPmuConfig{}});  // keyed noise on

  {
    hpc::SimulatedPmuConfig c = quiet();
    c.hierarchy.l1d = {"L1D", 4 * 1024, 2, 64, uarch::ReplacementPolicy::kFifo};
    c.hierarchy.l2 = {"L2", 8 * 1024, 2, 64, uarch::ReplacementPolicy::kFifo};
    c.predictor = uarch::PredictorKind::kTwoLevelLocal;
    grid.push_back({"tiny-l1", c});
  }
  {
    hpc::SimulatedPmuConfig c = quiet();
    c.cold_start_per_measurement = false;
    grid.push_back({"warm", c});
  }
  {
    hpc::SimulatedPmuConfig c = quiet();
    c.pollution_period = 64;
    c.noise_seed = 7;
    grid.push_back({"polluted", c});
  }
  {
    hpc::SimulatedPmuConfig c = quiet();
    c.hierarchy.l1d = {"L1D", 8 * 1024, 4, 64,
                       uarch::ReplacementPolicy::kRandom};
    c.hierarchy.enable_next_line_prefetch = true;
    grid.push_back({"random-l1", c});
  }
  {
    hpc::SimulatedPmuConfig c;  // default environment again, other predictor
    c.predictor = uarch::PredictorKind::kBimodal;
    grid.push_back({"bimodal", c});
  }
  return grid;
}

TEST(Sweep, ReplayedPointsAreBitIdenticalToTheLiveRerunLoop) {
  nn::Sequential model = tiny_model();
  data::Dataset ds = tiny_dataset();
  auto instruments = testing::trace_pure_factory();
  Campaign campaign(model, ds, instruments);

  SweepConfig cfg;
  cfg.samples_per_category = 3;
  cfg.warmup_measurements = 2;
  cfg.verify_live = true;
  cfg.grid = family_grid();

  const SweepResult result = campaign.sweep(cfg);

  EXPECT_EQ(result.stats.live_mismatches, 0u);
  EXPECT_GT(result.stats.live_runs, 0u);
  EXPECT_EQ(result.stats.grid_points, cfg.grid.size());
  EXPECT_EQ(result.stats.traces_recorded,
            cfg.warmup_measurements + 4 * cfg.samples_per_category);

  ASSERT_EQ(result.points.size(), cfg.grid.size());
  for (const SweepPointResult& p : result.points) {
    SCOPED_TRACE(p.label);
    EXPECT_TRUE(p.result.diagnostics.complete);
    EXPECT_EQ(p.result.category_count(), 4u);
    for (hpc::HpcEvent e : hpc::all_events())
      for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(p.result.of(e, c).size(), cfg.samples_per_category);
  }
}

TEST(Sweep, BlockScheduleIsAlsoBitIdentical) {
  nn::Sequential model = tiny_model();
  data::Dataset ds = tiny_dataset();
  auto instruments = testing::trace_pure_factory();
  Campaign campaign(model, ds, instruments);

  SweepConfig cfg;
  cfg.samples_per_category = 2;
  cfg.interleave_categories = false;
  cfg.verify_live = true;
  cfg.grid = {{"default", hpc::SimulatedPmuConfig{}}, {"warm", [] {
                hpc::SimulatedPmuConfig c = quiet();
                c.cold_start_per_measurement = false;
                return c;
              }()}};

  const SweepResult result = campaign.sweep(cfg);
  EXPECT_EQ(result.stats.live_mismatches, 0u);
}

TEST(Sweep, ResultsAreInvariantUnderThreadCount) {
  nn::Sequential model = tiny_model();
  data::Dataset ds = tiny_dataset();
  auto instruments = testing::trace_pure_factory();
  // ONE campaign for all runs: repeated sweep() calls share the cached
  // recording plan, so their traces — and therefore their counts — are
  // comparable bit-for-bit.
  Campaign campaign(model, ds, instruments);

  SweepConfig cfg;
  cfg.samples_per_category = 3;
  cfg.grid = family_grid();

  std::vector<SweepResult> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    cfg.num_threads = threads;
    runs.push_back(campaign.sweep(cfg));
  }

  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].points.size(), runs[0].points.size());
    for (std::size_t g = 0; g < runs[0].points.size(); ++g) {
      SCOPED_TRACE(runs[0].points[g].label);
      for (hpc::HpcEvent e : hpc::all_events())
        for (std::size_t c = 0; c < 4; ++c) {
          const auto& want = runs[0].points[g].result.of(e, c);
          const auto& got = runs[r].points[g].result.of(e, c);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i], want[i]);  // exact, not approximate
        }
    }
  }
}

TEST(Sweep, GridPointsShareComponentClassesAndInputCaches) {
  nn::Sequential model = tiny_model();
  data::Dataset ds = tiny_dataset();  // 6 images per class
  auto instruments = testing::trace_pure_factory();
  Campaign campaign(model, ds, instruments);

  hpc::SimulatedPmuConfig small = quiet();
  small.hierarchy.l1d = {"L1D", 16 * 1024, 4, 64,
                         uarch::ReplacementPolicy::kLru};

  // 4 grid points spanning 2 hierarchies x 2 predictors: the engine
  // should do the memory work twice and the branch work twice, not four
  // times each.
  SweepConfig cfg;
  cfg.samples_per_category = 8;  // > pool size: inputs repeat
  cfg.warmup_measurements = 2;
  cfg.grid = {{"big-gshare", quiet()},
              {"small-gshare", small},
              {"big-bimodal", quiet()},
              {"small-bimodal", small}};
  cfg.grid[2].pmu.predictor = uarch::PredictorKind::kBimodal;
  cfg.grid[3].pmu.predictor = uarch::PredictorKind::kBimodal;

  const SweepResult result = campaign.sweep(cfg);
  EXPECT_EQ(result.stats.memory_classes, 2u);
  EXPECT_EQ(result.stats.branch_classes, 2u);

  // Every class is cold and deterministic, so the 6-image pools make
  // slots 6 and 7 of each category pure cache hits: 4 categories x 2
  // repeated slots x 4 classes.
  EXPECT_EQ(result.stats.replay_cache_hits, 4u * 2u * 4u);
  // Replays: every class replays each warmup plus each unique
  // (category, input) pair once.
  EXPECT_EQ(result.stats.replays, 4u * (2u + 4u * 6u));
}

TEST(Sweep, ValidateRejectsIllFormedConfigs) {
  SweepConfig cfg;
  cfg.grid = {{"a", hpc::SimulatedPmuConfig{}}};
  EXPECT_NO_THROW(cfg.validate());

  SweepConfig empty_grid = cfg;
  empty_grid.grid.clear();
  EXPECT_THROW(empty_grid.validate(), InvalidArgument);

  SweepConfig no_samples = cfg;
  no_samples.samples_per_category = 0;
  EXPECT_THROW(no_samples.validate(), InvalidArgument);

  SweepConfig no_categories = cfg;
  no_categories.categories.clear();
  EXPECT_THROW(no_categories.validate(), InvalidArgument);

  SweepConfig unlabeled = cfg;
  unlabeled.grid.push_back({"", hpc::SimulatedPmuConfig{}});
  EXPECT_THROW(unlabeled.validate(), InvalidArgument);

  SweepConfig duplicate = cfg;
  duplicate.grid.push_back({"a", hpc::SimulatedPmuConfig{}});
  EXPECT_THROW(duplicate.validate(), InvalidArgument);
}

TEST(Sweep, UnknownLabelThrows) {
  SweepResult result;
  result.points.push_back({"here", CampaignResult{}});
  EXPECT_NO_THROW(result.of("here"));
  EXPECT_THROW(result.of("elsewhere"), InvalidArgument);
}

}  // namespace
}  // namespace sce::core
