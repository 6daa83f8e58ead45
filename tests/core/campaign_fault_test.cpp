// Fault-path coverage for the campaign runtime: transient faults fully
// by retries, permanent event loss degrading gracefully into diagnostics,
// and checkpoint kill/resume reproducing the uninterrupted result
// bit-for-bit.
#include <gtest/gtest.h>

#include <cstdio>

#include "campaign_helpers.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/evaluator.hpp"
#include "hpc/fault_injection.hpp"
#include "hpc/simulated_pmu.hpp"
#include "uarch/trace.hpp"
#include "util/error.hpp"

namespace sce::core {
namespace {

hpc::SimulatedPmu quiet_pmu() {
  hpc::SimulatedPmuConfig cfg;
  cfg.environment = hpc::SimulatedPmuConfig::no_environment();
  return hpc::SimulatedPmu(cfg);
}

using testing::TracePurePmu;

CampaignConfig small_campaign(std::size_t samples = 6) {
  CampaignConfig cfg;
  cfg.categories = {0, 1, 2};
  cfg.samples_per_category = samples;
  return cfg;
}

CampaignResult resume_borrowed(const nn::Sequential& model,
                               const data::Dataset& ds,
                               hpc::CounterProvider& provider,
                               uarch::TraceSink& sink,
                               const CampaignConfig& cfg,
                               const CampaignCheckpoint& checkpoint) {
  hpc::SingleInstrumentFactory instruments(provider, sink);
  return Campaign(model, ds, instruments).with_config(cfg).resume(checkpoint);
}

bool same_distributions(const CampaignResult& a, const CampaignResult& b) {
  if (a.categories != b.categories) return false;
  if (a.category_names != b.category_names) return false;
  for (hpc::HpcEvent e : hpc::all_events()) {
    const std::size_t idx = static_cast<std::size_t>(e);
    if (a.samples[idx] != b.samples[idx]) return false;  // bit-for-bit
  }
  return true;
}

TEST(CampaignFault, TransientFaultsAreFullyAbsorbedByRetries) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  hpc::SimulatedPmu pmu = quiet_pmu();
  hpc::FaultConfig faults;
  faults.transient_rate = 0.10;  // the acceptance-criteria regime
  faults.seed = 21;
  hpc::FaultInjectingProvider provider(pmu, faults);

  const CampaignConfig cfg = small_campaign();
  const CampaignResult result =
      testing::run_borrowed(model, ds, provider, pmu, cfg);

  // Retries absorb every transient fault: full distributions.
  for (hpc::HpcEvent e : hpc::all_events())
    for (std::size_t c = 0; c < cfg.categories.size(); ++c)
      EXPECT_EQ(result.of(e, c).size(), cfg.samples_per_category)
          << hpc::to_string(e);
  EXPECT_TRUE(result.diagnostics.complete);
  EXPECT_GT(result.diagnostics.transient_faults, 0u);
  EXPECT_TRUE(result.diagnostics.dropped_events.empty());
  EXPECT_EQ(result.diagnostics.failed_measurements, 0u);
  EXPECT_EQ(result.diagnostics.measurements_recorded,
            cfg.categories.size() * cfg.samples_per_category);
}

TEST(CampaignFault, FaultsDoNotChangeRecordedValues) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();

  TracePurePmu clean_pmu;
  const CampaignResult clean =
      testing::run_borrowed(model, ds, clean_pmu, small_campaign());

  TracePurePmu pmu;
  hpc::FaultConfig faults;
  faults.transient_rate = 0.15;
  faults.event_drop_rate = 0.05;
  faults.seed = 5;
  hpc::FaultInjectingProvider provider(pmu, faults);
  const CampaignResult faulty =
      testing::run_borrowed(model, ds, provider, pmu, small_campaign());

  // The deterministic workload means a retried measurement reproduces the
  // original exactly: the fault layer must be invisible in the data.
  EXPECT_TRUE(same_distributions(clean, faulty));
  EXPECT_GT(faulty.diagnostics.transient_faults +
                faulty.diagnostics.incomplete_samples,
            0u);
}

TEST(CampaignFault, PermanentEventLossDegradesGracefully) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  hpc::SimulatedPmu pmu = quiet_pmu();
  hpc::FaultConfig faults;
  faults.permanent_fail_event = hpc::HpcEvent::kBusCycles;
  faults.permanent_fail_after = 7;  // dies mid-campaign
  hpc::FaultInjectingProvider provider(pmu, faults);

  const CampaignConfig cfg = small_campaign();
  const CampaignResult result =
      testing::run_borrowed(model, ds, provider, pmu, cfg);

  // The campaign completed, named the dead event, and cleared its cells.
  EXPECT_TRUE(result.diagnostics.complete);
  ASSERT_EQ(result.diagnostics.dropped_events.size(), 1u);
  EXPECT_EQ(result.diagnostics.dropped_events[0], hpc::HpcEvent::kBusCycles);
  EXPECT_TRUE(result.diagnostics.event_dropped(hpc::HpcEvent::kBusCycles));
  EXPECT_FALSE(result.has_event(hpc::HpcEvent::kBusCycles));
  for (std::size_t c = 0; c < cfg.categories.size(); ++c)
    EXPECT_TRUE(result.of(hpc::HpcEvent::kBusCycles, c).empty());

  // Every surviving event still has full cells.
  for (hpc::HpcEvent e : hpc::all_events()) {
    if (e == hpc::HpcEvent::kBusCycles) continue;
    for (std::size_t c = 0; c < cfg.categories.size(); ++c)
      EXPECT_EQ(result.of(e, c).size(), cfg.samples_per_category)
          << hpc::to_string(e);
  }

  // And the evaluator keeps working on the degraded result: the dropped
  // event is skipped, not fatal.
  const LeakageAssessment assessment = evaluate(result);
  EXPECT_THROW(assessment.analysis_of(hpc::HpcEvent::kBusCycles),
               InvalidArgument);
  EXPECT_NO_THROW(assessment.analysis_of(hpc::HpcEvent::kInstructions));
}

TEST(CampaignFault, HopelessProviderAbortsInsteadOfSpinning) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  hpc::SimulatedPmu pmu = quiet_pmu();
  hpc::FaultConfig faults;
  faults.transient_rate = 1.0;  // nothing ever succeeds
  hpc::FaultInjectingProvider provider(pmu, faults);
  CampaignConfig cfg = small_campaign();
  cfg.max_failed_measurements = 4;
  EXPECT_THROW(testing::run_borrowed(model, ds, provider, pmu, cfg),
               Error);
}

TEST(CampaignFault, DiagnosticsSummaryMentionsDegradation) {
  CampaignDiagnostics diag;
  diag.measurements_recorded = 10;
  diag.measurements_attempted = 14;
  diag.dropped_events = {hpc::HpcEvent::kRefCycles};
  const std::string s = diag.summary();
  EXPECT_NE(s.find("ref-cycles"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
  EXPECT_NE(s.find("partial"), std::string::npos);
}

TEST(CampaignFault, ReusedWorkspacesDoNotPerturbMeasurements) {
  // The campaign runs every sample through one preplanned engine whose
  // activation buffers and scratch are reused sample to sample.  With a
  // trace-pure provider, a measurement's value must not depend on how
  // many samples came before it: the first sample of each category in a
  // long campaign equals the sole sample of a short one.
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();

  TracePurePmu pmu_short;
  const CampaignResult one = testing::run_borrowed(model, ds, pmu_short, small_campaign(/*samples=*/1));
  TracePurePmu pmu_long;
  const CampaignResult many = testing::run_borrowed(model, ds, pmu_long, small_campaign(/*samples=*/6));

  for (hpc::HpcEvent e : hpc::all_events())
    for (std::size_t c = 0; c < one.categories.size(); ++c)
      EXPECT_EQ(one.of(e, c).front(), many.of(e, c).front())
          << hpc::to_string(e) << " category " << c;
}

// --- Checkpoint / resume -------------------------------------------------

TEST(CampaignCheckpoint, JsonRoundTripPreservesEverything) {
  CampaignResult partial = testing::synthetic_campaign({10.0, 20.0}, 1.5, 7);
  partial.diagnostics.measurements_recorded = 14;
  partial.diagnostics.transient_faults = 3;
  partial.diagnostics.dropped_events = {hpc::HpcEvent::kBusCycles};
  partial.diagnostics.missing_event_counts[2] = 9;
  CampaignConfig cfg;
  cfg.categories = {0, 1};
  cfg.samples_per_category = 20;

  const CampaignCheckpoint cp = make_checkpoint(partial, cfg);
  const std::string json = checkpoint_to_json(cp);
  const CampaignCheckpoint back = checkpoint_from_json(json);

  EXPECT_EQ(back.version, 3);
  EXPECT_EQ(back.samples_per_category, 20u);
  EXPECT_EQ(back.kernel_mode, nn::to_string(cfg.kernel_mode));
  EXPECT_TRUE(same_distributions(cp.partial, back.partial));
  EXPECT_EQ(back.partial.diagnostics.measurements_recorded, 14u);
  EXPECT_EQ(back.partial.diagnostics.transient_faults, 3u);
  ASSERT_EQ(back.partial.diagnostics.dropped_events.size(), 1u);
  EXPECT_EQ(back.partial.diagnostics.dropped_events[0],
            hpc::HpcEvent::kBusCycles);
  EXPECT_EQ(back.partial.diagnostics.missing_event_counts[2], 9u);
}

TEST(CampaignCheckpoint, RejectsForeignDocuments) {
  EXPECT_THROW(checkpoint_from_json("{}"), InvalidArgument);
  EXPECT_THROW(checkpoint_from_json("[1,2,3]"), InvalidArgument);
  EXPECT_THROW(checkpoint_from_json("not json"), InvalidArgument);
}

TEST(CampaignCheckpoint, KilledCampaignResumesBitForBit) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  const CampaignConfig cfg = small_campaign(/*samples=*/5);

  // Reference: one uninterrupted run (with faults!).
  auto make_provider = [](TracePurePmu& pmu) {
    hpc::FaultConfig faults;
    faults.transient_rate = 0.10;
    faults.seed = 77;
    return hpc::FaultInjectingProvider(pmu, faults);
  };
  TracePurePmu pmu_a;
  auto provider_a = make_provider(pmu_a);
  const CampaignResult uninterrupted =
      testing::run_borrowed(model, ds, provider_a, pmu_a, cfg);

  // "Kill" a second run mid-flight by cancelling it after 7 measurements.
  TracePurePmu pmu_b;
  auto provider_b = make_provider(pmu_b);
  hpc::SingleInstrumentFactory instruments_b(provider_b, pmu_b);
  Campaign first_leg(model, ds, instruments_b);
  const CampaignResult partial =
      testing::run_until(first_leg, cfg, 7);  // dies mid-round
  EXPECT_FALSE(partial.diagnostics.complete);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(partial.diagnostics.measurements_recorded, 7u);

  // Serialize, reload, resume in a "fresh process" (new PMU, new
  // provider — nothing survives the kill except the checkpoint JSON).
  const std::string json = checkpoint_to_json(make_checkpoint(partial, cfg));
  const CampaignCheckpoint loaded = checkpoint_from_json(json);
  TracePurePmu pmu_c;
  auto provider_c = make_provider(pmu_c);
  const CampaignResult resumed = resume_borrowed(model, ds, provider_c, pmu_c, cfg, loaded);

  EXPECT_TRUE(resumed.diagnostics.complete);
  EXPECT_TRUE(resumed.diagnostics.resumed);
  EXPECT_TRUE(same_distributions(uninterrupted, resumed));
}

TEST(CampaignCheckpoint, ParentFormatWithRemovedKeysStillLoads) {
  // Earlier v3 writers also recorded an outlier quarantine and the shards
  // a stall watchdog flagged.  The reader ignores those keys, so such a
  // file still resumes; only a stop reason that no longer exists is
  // refused.
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  const CampaignConfig cfg = small_campaign(/*samples=*/5);
  auto instruments = testing::trace_pure_factory();
  const CampaignResult uninterrupted =
      Campaign(model, ds, instruments).with_config(cfg).run();

  Campaign first_leg(model, ds, instruments);
  const CampaignResult partial = testing::run_until(first_leg, cfg, 7);
  ASSERT_EQ(partial.diagnostics.measurements_recorded, 7u);
  const std::string json = checkpoint_to_json(make_checkpoint(partial, cfg));

  std::string removed = "\"outliers_quarantined\":2,\"quarantined\":{";
  for (hpc::HpcEvent e : hpc::all_events()) {
    if (e != hpc::all_events().front()) removed += ",";
    removed += "\"" + hpc::to_string(e) + "\":";
    removed += e == hpc::HpcEvent::kInstructions ? "[1234.5,6789]" : "[]";
  }
  removed += "},\"stalled_shards\":[1],";
  const std::string stop_key = "\"stop_reason\":\"cancelled\"";
  const std::size_t at = json.find(stop_key);
  ASSERT_NE(at, std::string::npos);
  std::string parent_json = json;
  parent_json.insert(at, removed);

  const CampaignCheckpoint loaded = checkpoint_from_json(parent_json);
  EXPECT_EQ(loaded.version, 3);
  EXPECT_EQ(loaded.partial.diagnostics.measurements_recorded, 7u);
  const CampaignResult resumed =
      Campaign(model, ds, instruments).with_config(cfg).resume(loaded);
  EXPECT_TRUE(resumed.diagnostics.complete);
  EXPECT_TRUE(same_distributions(uninterrupted, resumed));

  for (const std::string reason : {"measurement-budget", "shard-stalled"}) {
    std::string stale = parent_json;
    stale.replace(stale.find(stop_key), stop_key.size(),
                  "\"stop_reason\":\"" + reason + "\"");
    try {
      (void)checkpoint_from_json(stale);
      ADD_FAILURE() << "loaded a checkpoint stopped by " << reason;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignCheckpoint, ResumeRejectsMismatchedConfig) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  hpc::SimulatedPmu pmu = quiet_pmu();

  const CampaignConfig cfg = small_campaign(/*samples=*/4);
  hpc::SingleInstrumentFactory instruments(pmu, pmu);
  Campaign first_leg(model, ds, instruments);
  const CampaignResult partial = testing::run_until(first_leg, cfg, 3);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(partial.diagnostics.measurements_recorded, 3u);
  const CampaignCheckpoint cp = make_checkpoint(partial, cfg);

  CampaignConfig different_budget = cfg;
  different_budget.samples_per_category = 9;
  EXPECT_THROW(resume_borrowed(model, ds, pmu, pmu, different_budget, cp),
               InvalidArgument);

  CampaignConfig different_mode = cfg;
  different_mode.kernel_mode = nn::KernelMode::kConstantFlow;
  EXPECT_THROW(
      resume_borrowed(model, ds, pmu, pmu, different_mode, cp),
      InvalidArgument);
}

TEST(CampaignCheckpoint, PeriodicCheckpointFilesAreWrittenAndLoadable) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  hpc::SimulatedPmu pmu = quiet_pmu();

  const std::string path = ::testing::TempDir() + "sce_campaign_ckpt.json";
  CampaignConfig cfg = small_campaign(/*samples=*/4);
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = path;
  const CampaignResult result =
      testing::run_borrowed(model, ds, pmu, cfg);
  EXPECT_GT(result.diagnostics.checkpoints_written, 0u);

  const CampaignCheckpoint cp = load_checkpoint(path);
  EXPECT_EQ(cp.samples_per_category, 4u);
  // The last checkpoint was written at a multiple of checkpoint_every.
  EXPECT_EQ(cp.partial.diagnostics.measurements_recorded % 5, 0u);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, LoadMissingFileThrowsIoError) {
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/ckpt.json"), IoError);
}

}  // namespace
}  // namespace sce::core
