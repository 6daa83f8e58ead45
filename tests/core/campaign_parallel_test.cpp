// The sharded runtime's determinism contract:
//  * thread count never changes anything (shard state is thread-private),
//  * shard count never changes a trace-count-pure provider's results,
//  * under the SimulatedPmu the address-independent events survive
//    resharding bit-for-bit (cache events depend on per-shard plan
//    addresses, which is physics, not a runtime bug),
//  * checkpoints taken mid-parallel-run resume to the uninterrupted
//    run's exact result.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/checkpoint.hpp"
#include "hpc/instrument_factory.hpp"
#include "hpc/simulated_pmu.hpp"
#include "util/error.hpp"
#include "campaign_helpers.hpp"

namespace sce::core {
namespace {

using testing::run_until;
using testing::tiny_dataset;
using testing::tiny_model;
using testing::trace_pure_factory;

CampaignConfig small_config(std::size_t shards, std::size_t threads = 0) {
  CampaignConfig cfg;
  cfg.samples_per_category = 12;
  cfg.warmup_measurements = 1;
  cfg.num_shards = shards;
  cfg.num_threads = threads;
  return cfg;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.categories, b.categories);
  for (std::size_t e = 0; e < hpc::kNumEvents; ++e) {
    ASSERT_EQ(a.samples[e].size(), b.samples[e].size());
    for (std::size_t c = 0; c < a.samples[e].size(); ++c)
      EXPECT_EQ(a.samples[e][c], b.samples[e][c])
          << "event " << e << " category " << c;
  }
  EXPECT_EQ(a.diagnostics.measurements_recorded,
            b.diagnostics.measurements_recorded);
}

TEST(CampaignParallel, ShardCountDoesNotChangeTracePureResults) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();

  const CampaignResult serial =
      Campaign(model, ds, instruments).with_config(small_config(1)).run();
  ASSERT_TRUE(serial.diagnostics.complete);

  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const CampaignResult sharded = Campaign(model, ds, instruments)
                                       .with_config(small_config(shards))
                                       .run();
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    expect_identical(serial, sharded);
    // The merge map must account for every recorded measurement.
    ASSERT_EQ(sharded.diagnostics.shard_recorded.size(), shards);
    for (std::size_t c = 0; c < sharded.category_count(); ++c) {
      std::size_t sum = 0;
      for (const auto& row : sharded.diagnostics.shard_recorded) sum += row[c];
      EXPECT_EQ(sum, sharded.samples[0][c].size());
    }
  }
}

TEST(CampaignParallel, ThreadCountDoesNotChangeResults) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();

  const CampaignResult one_thread =
      Campaign(model, ds, instruments).with_config(small_config(4, 1)).run();
  for (std::size_t threads : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    const CampaignResult parallel =
        Campaign(model, ds, instruments)
            .with_config(small_config(4, threads))
            .run();
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    expect_identical(one_thread, parallel);
  }
}

TEST(CampaignParallel, SimulatedPmuAddressIndependentEventsSurviveResharding) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  hpc::SimulatedPmuFactory instruments;

  CampaignConfig cfg = small_config(1);
  cfg.samples_per_category = 6;
  const CampaignResult serial =
      Campaign(model, ds, instruments).with_config(cfg).run();
  cfg.num_shards = 4;
  const CampaignResult sharded =
      Campaign(model, ds, instruments).with_config(cfg).run();

  for (hpc::HpcEvent event :
       {hpc::HpcEvent::kInstructions, hpc::HpcEvent::kBranches,
        hpc::HpcEvent::kBranchMisses}) {
    const auto e = static_cast<std::size_t>(event);
    for (std::size_t c = 0; c < serial.category_count(); ++c)
      EXPECT_EQ(serial.samples[e][c], sharded.samples[e][c])
          << hpc::to_string(event) << " category " << c;
  }
}

TEST(CampaignParallel, MidParallelCheckpointResumesToIdenticalResult) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();

  const CampaignConfig full = small_config(4);
  const CampaignResult uninterrupted =
      Campaign(model, ds, instruments).with_config(full).run();

  Campaign first_leg(model, ds, instruments);
  const CampaignResult partial = run_until(first_leg, full, 20);
  ASSERT_FALSE(partial.diagnostics.complete);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kCancelled);
  ASSERT_EQ(partial.diagnostics.measurements_recorded, std::size_t{20});

  const CampaignCheckpoint checkpoint = make_checkpoint(partial, full);
  const CampaignResult resumed =
      Campaign(model, ds, instruments).with_config(full).resume(checkpoint);
  EXPECT_TRUE(resumed.diagnostics.resumed);
  EXPECT_TRUE(resumed.diagnostics.complete);
  for (std::size_t e = 0; e < hpc::kNumEvents; ++e)
    for (std::size_t c = 0; c < uninterrupted.category_count(); ++c)
      EXPECT_EQ(uninterrupted.samples[e][c], resumed.samples[e][c])
          << "event " << e << " category " << c;
}

TEST(CampaignParallel, SerialCheckpointResumesShardedViaPrefixSplit) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();

  const CampaignResult reference =
      Campaign(model, ds, instruments).with_config(small_config(1)).run();

  Campaign first_leg(model, ds, instruments);
  const CampaignResult partial = run_until(first_leg, small_config(1), 15);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kCancelled);
  ASSERT_EQ(partial.diagnostics.measurements_recorded, std::size_t{15});
  const CampaignCheckpoint checkpoint =
      make_checkpoint(partial, small_config(1));

  // A serial (single-row) checkpoint may be resumed at any shard count:
  // the recorded prefix is split across the new shard ranges.
  const CampaignResult resumed = Campaign(model, ds, instruments)
                                     .with_config(small_config(4))
                                     .resume(checkpoint);
  EXPECT_TRUE(resumed.diagnostics.complete);
  for (std::size_t e = 0; e < hpc::kNumEvents; ++e)
    for (std::size_t c = 0; c < reference.category_count(); ++c)
      EXPECT_EQ(reference.samples[e][c], resumed.samples[e][c])
          << "event " << e << " category " << c;
}

TEST(CampaignParallel, ShardedCheckpointRequiresMatchingShardCount) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();

  Campaign first_leg(model, ds, instruments);
  const CampaignResult partial = run_until(first_leg, small_config(4), 24);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kCancelled);
  ASSERT_EQ(partial.diagnostics.measurements_recorded, std::size_t{24});
  ASSERT_EQ(partial.diagnostics.shard_recorded.size(), 4u);
  const CampaignCheckpoint checkpoint =
      make_checkpoint(partial, small_config(4));

  // A multi-row checkpoint encodes its shard layout; a different shard
  // count cannot reconstruct the per-shard cursors.
  EXPECT_THROW(Campaign(model, ds, instruments)
                   .with_config(small_config(2))
                   .resume(checkpoint),
               InvalidArgument);
}

TEST(CampaignParallel, ProgressIsMonotoneAndReachesTheTarget) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();

  std::vector<CampaignProgress> snapshots;
  const CampaignResult result =
      Campaign(model, ds, instruments)
          .with_config(small_config(4, 2))
          .on_progress([&](const CampaignProgress& p) {
            snapshots.push_back(p);
          }, 8)
          .run();

  ASSERT_FALSE(snapshots.empty());
  const std::size_t target = result.category_count() * 12;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].measurements_target, target);
    EXPECT_EQ(snapshots[i].shards, 4u);
    if (i > 0)
      EXPECT_GE(snapshots[i].measurements_recorded,
                snapshots[i - 1].measurements_recorded);
  }
  EXPECT_EQ(snapshots.back().measurements_recorded, target);
}

TEST(CampaignParallel, ValidateRejectsBrokenShardingConfigs) {
  CampaignConfig cfg;
  cfg.num_shards = 0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);

  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();
  EXPECT_THROW(Campaign(model, ds, instruments).with_config(cfg).run(),
               InvalidArgument);
}

}  // namespace
}  // namespace sce::core
