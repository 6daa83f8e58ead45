// Supervised-execution coverage: cooperative cancellation, deadlines,
// instrument-loss failover and the crash-safe checkpoint format (CRC footer, .prev rotation, .corrupt quarantine).
// The load-bearing claim everywhere is bit-identity: however a run is
// interrupted, resuming it reproduces the uninterrupted result exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign_helpers.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fixed_vs_random.hpp"
#include "core/sweep.hpp"
#include "hpc/fault_injection.hpp"
#include "hpc/instrument_factory.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace sce::core {
namespace {

using namespace std::chrono_literals;
using testing::TracePurePmu;
using testing::tiny_dataset;
using testing::tiny_model;
using testing::trace_pure_factory;

/// Fresh scratch path under the test tempdir, with every sibling the
/// durable writer may have left behind (.prev/.corrupt/.tmp) removed.
std::string scratch_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  for (const char* suffix : {"", ".prev", ".corrupt", ".tmp"})
    std::remove((path + suffix).c_str());
  return path;
}

bool file_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

bool same_samples(const CampaignResult& a, const CampaignResult& b) {
  if (a.categories != b.categories) return false;
  for (hpc::HpcEvent e : hpc::all_events()) {
    const std::size_t idx = static_cast<std::size_t>(e);
    if (a.samples[idx] != b.samples[idx]) return false;  // bit-for-bit
  }
  return true;
}

/// Factory minting trace-pure rigs where the listed shards' instruments
/// die (every call throws TransientFailure) after `die_after_reads`
/// successful reads — the deterministic stand-in for a PMU session the
/// kernel revoked mid-campaign.
hpc::CallbackInstrumentFactory dying_factory(std::vector<std::size_t> dying,
                                             std::size_t die_after_reads) {
  return hpc::CallbackInstrumentFactory(
      [dying, die_after_reads](std::size_t shard, std::size_t) {
        auto pmu = std::make_unique<TracePurePmu>();
        hpc::FaultConfig faults;
        if (std::find(dying.begin(), dying.end(), shard) != dying.end())
          faults.die_after_reads = die_after_reads;
        auto provider =
            std::make_unique<hpc::FaultInjectingProvider>(*pmu, faults);
        return hpc::Instrument::adopt(std::move(provider), std::move(pmu));
      },
      "dying-trace-pure");
}

CampaignConfig supervised_config(std::size_t samples = 5,
                                 std::size_t shards = 3) {
  CampaignConfig cfg;
  cfg.categories = {0, 1, 2, 3};
  cfg.samples_per_category = samples;
  cfg.num_shards = shards;
  cfg.warmup_measurements = 1;
  return cfg;
}

// --- Stop-reason plumbing -------------------------------------------------

TEST(StopReason, NamesRoundTrip) {
  for (StopReason r : {StopReason::kCompleted, StopReason::kCancelled,
                       StopReason::kDeadline})
    EXPECT_EQ(parse_stop_reason(to_string(r)), r);
  EXPECT_THROW(parse_stop_reason("out-of-coffee"), InvalidArgument);
}

TEST(StopReason, ValidateRejectsNegativeSupervisionBudgets) {
  CampaignConfig cfg;
  cfg.deadline = -1ms;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(StopReason, SummaryNamesSupervisionEvents) {
  CampaignDiagnostics diag;
  diag.stop_reason = StopReason::kCancelled;
  diag.lost_instrument_shards = {2};
  diag.failed_over_measurements = 9;
  const std::string s = diag.summary();
  EXPECT_NE(s.find("cancelled"), std::string::npos);
  EXPECT_NE(s.find("lost instruments on shards: 2"), std::string::npos);
  EXPECT_NE(s.find("9 failed over"), std::string::npos);
}

// --- Cancellation ---------------------------------------------------------

TEST(Supervision, CancelMidRunReturnsPartialAndResumesBitForBit) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();

  for (nn::KernelMode mode :
       {nn::KernelMode::kDataDependent, nn::KernelMode::kConstantFlow}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("mode=" + nn::to_string(mode) +
                   " threads=" + std::to_string(threads));
      CampaignConfig cfg = supervised_config();
      cfg.kernel_mode = mode;
      cfg.num_threads = threads;

      // Reference: the same schedule, uninterrupted.
      auto ref_factory = trace_pure_factory();
      const CampaignResult reference =
          Campaign(model, ds, ref_factory).with_config(cfg).run();
      ASSERT_EQ(reference.status(), RunStatus::kComplete);

      // Interrupted leg: trip the config token from the progress
      // callback after exactly 7 recorded measurements (granularity 1
      // makes the chunk barrier land on every count).
      CampaignConfig first_leg = cfg;
      first_leg.checkpoint_path = scratch_path(
          "sce_sup_cancel_" + nn::to_string(mode) +
          std::to_string(threads) + ".json");
      // Config copies share CancelToken state — give the doomed leg its
      // own token so tripping it cannot leak into the resume leg.
      first_leg.cancel = util::CancelToken();
      util::CancelToken stopper = first_leg.cancel;  // shares state
      auto factory_a = trace_pure_factory();
      Campaign interrupted(model, ds, factory_a);
      interrupted.with_config(first_leg)
          .on_progress(
              [&stopper](const CampaignProgress& p) {
                if (p.measurements_recorded >= 7)
                  stopper.cancel("test kill-point");
              },
              /*every=*/1);
      const CampaignResult partial = interrupted.run();

      EXPECT_EQ(partial.status(), RunStatus::kPartial);
      EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kCancelled);
      EXPECT_EQ(partial.diagnostics.measurements_recorded, 7u);

      // A cancelled run always leaves a loadable checkpoint behind.
      ASSERT_TRUE(file_exists(first_leg.checkpoint_path));
      const CampaignCheckpoint cp = load_checkpoint(first_leg.checkpoint_path);
      EXPECT_EQ(cp.partial.diagnostics.stop_reason, StopReason::kCancelled);

      // Resume in a "fresh process": new campaign, fresh instruments,
      // fresh (untripped) token.
      auto factory_b = trace_pure_factory();
      const CampaignResult resumed =
          Campaign(model, ds, factory_b).with_config(cfg).resume(cp);
      EXPECT_EQ(resumed.status(), RunStatus::kComplete);
      EXPECT_EQ(resumed.diagnostics.stop_reason, StopReason::kCompleted);
      EXPECT_TRUE(resumed.diagnostics.resumed);
      EXPECT_TRUE(same_samples(resumed, reference));
    }
  }
}

TEST(Supervision, PreExpiredDeadlineFlushesResumableCheckpoint) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  CampaignConfig cfg = supervised_config(/*samples=*/4, /*shards=*/2);

  auto ref_factory = trace_pure_factory();
  const CampaignResult reference =
      Campaign(model, ds, ref_factory).with_config(cfg).run();

  CampaignConfig first_leg = cfg;
  first_leg.checkpoint_path = scratch_path("sce_sup_deadline.json");
  first_leg.cancel = util::CancelToken();    // do not trip cfg's token
  first_leg.cancel.set_deadline_after(0ms);  // expired before the run
  auto factory_a = trace_pure_factory();
  const CampaignResult partial =
      Campaign(model, ds, factory_a).with_config(first_leg).run();

  EXPECT_EQ(partial.status(), RunStatus::kPartial);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(partial.diagnostics.measurements_recorded, 0u);

  const CampaignCheckpoint cp = load_checkpoint(first_leg.checkpoint_path);
  auto factory_b = trace_pure_factory();
  const CampaignResult resumed =
      Campaign(model, ds, factory_b).with_config(cfg).resume(cp);
  EXPECT_EQ(resumed.status(), RunStatus::kComplete);
  EXPECT_TRUE(same_samples(resumed, reference));
}

TEST(Supervision, ConfiguredDeadlineStopsALongRunEarly) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  // A budget far beyond what a few milliseconds can acquire.
  CampaignConfig cfg = supervised_config(/*samples=*/400, /*shards=*/2);
  cfg.deadline = 3ms;
  cfg.checkpoint_path = scratch_path("sce_sup_deadline_mid.json");

  auto factory = trace_pure_factory();
  const CampaignResult partial =
      Campaign(model, ds, factory).with_config(cfg).run();

  EXPECT_EQ(partial.status(), RunStatus::kPartial);
  EXPECT_EQ(partial.diagnostics.stop_reason, StopReason::kDeadline);
  EXPECT_LT(partial.diagnostics.measurements_recorded,
            cfg.categories.size() * cfg.samples_per_category);
  // Whatever the cut point was, the checkpoint is valid and resumable.
  EXPECT_NO_THROW(load_checkpoint(cfg.checkpoint_path));
}

// --- Instrument loss and failover ------------------------------------------

TEST(Supervision, InstrumentDeathFailsOverBitForBit) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  CampaignConfig cfg = supervised_config(/*samples=*/6, /*shards=*/2);
  cfg.num_threads = 2;
  cfg.warmup_measurements = 2;
  cfg.retry.max_attempts = 2;
  cfg.instrument_lost_after = 2;

  auto ref_factory = trace_pure_factory();
  const CampaignResult reference =
      Campaign(model, ds, ref_factory).with_config(cfg).run();

  // Shard 1's instrument survives its 2 warmups plus one measurement,
  // then every call fails.  After two retry-exhausted slots the rig is
  // declared lost and its remaining range fails over to shard 0.
  auto factory = dying_factory({1}, /*die_after_reads=*/3);
  const CampaignResult result =
      Campaign(model, ds, factory).with_config(cfg).run();

  EXPECT_EQ(result.status(), RunStatus::kComplete);
  EXPECT_TRUE(result.diagnostics.complete);
  EXPECT_EQ(result.diagnostics.lost_instrument_shards,
            std::vector<std::size_t>{1});
  EXPECT_GT(result.diagnostics.failed_over_measurements, 0u);
  EXPECT_EQ(result.diagnostics.failed_measurements, 2u);
  // The merged distributions are the fault-free run's, bit for bit:
  // global-slot keying makes the adopted work record the same values.
  EXPECT_TRUE(same_samples(result, reference));
}

TEST(Supervision, AllInstrumentsLostThrowsAfterCheckpointFlush) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  CampaignConfig cfg = supervised_config(/*samples=*/5, /*shards=*/1);
  cfg.warmup_measurements = 2;
  cfg.retry.max_attempts = 2;
  cfg.instrument_lost_after = 1;
  cfg.checkpoint_path = scratch_path("sce_sup_all_dead.json");

  auto ref_factory = trace_pure_factory();
  const CampaignResult reference =
      Campaign(model, ds, ref_factory).with_config(cfg).run();

  // The only rig dies after warmup + 2 measurements: no healthy shard
  // remains, so the campaign flushes a checkpoint and throws.
  auto factory = dying_factory({0}, /*die_after_reads=*/4);
  Campaign doomed(model, ds, factory);
  EXPECT_THROW(doomed.with_config(cfg).run(), InstrumentLost);

  // The flushed checkpoint carries the 2 recorded measurements and
  // resumes to the fault-free result on a healthy rig.
  ASSERT_TRUE(file_exists(cfg.checkpoint_path));
  const CampaignCheckpoint cp = load_checkpoint(cfg.checkpoint_path);
  EXPECT_EQ(cp.partial.diagnostics.measurements_recorded, 2u);
  EXPECT_EQ(cp.partial.diagnostics.lost_instrument_shards,
            std::vector<std::size_t>{0});

  CampaignConfig clean = cfg;
  clean.checkpoint_path.clear();
  auto factory_b = trace_pure_factory();
  const CampaignResult resumed =
      Campaign(model, ds, factory_b).with_config(clean).resume(cp);
  EXPECT_EQ(resumed.status(), RunStatus::kComplete);
  EXPECT_TRUE(same_samples(resumed, reference));
  // The loss stays on the record across the resume.
  EXPECT_EQ(resumed.diagnostics.lost_instrument_shards,
            std::vector<std::size_t>{0});
}

// --- Checkpoint durability ---------------------------------------------------

TEST(CheckpointDurability, CrcFooterRoundTrip) {
  const std::string body = "{\"k\": [1, 2, 3]}\n";
  const std::string framed = with_crc_footer(body);
  EXPECT_NE(framed.find("#crc32:"), std::string::npos);

  EXPECT_EQ(strip_crc_footer(framed), body);

  // Footerless text is unverifiable, hence rejected.
  EXPECT_THROW(strip_crc_footer(body), InvalidArgument);

  // Any tampering inside the framed body is caught.
  std::string tampered = framed;
  tampered[3] ^= 0x01;
  EXPECT_THROW(strip_crc_footer(tampered), InvalidArgument);
}

TEST(CheckpointDurability, CorruptFileIsQuarantinedAndPrevWins) {
  const std::string path = scratch_path("sce_sup_durable.json");

  CampaignResult gen1 = testing::synthetic_campaign({10.0, 20.0}, 1.0, 3);
  gen1.diagnostics.measurements_recorded = 6;
  CampaignResult gen2 = gen1;
  gen2.diagnostics.measurements_recorded = 9;
  CampaignConfig cfg;
  cfg.categories = {0, 1};
  cfg.samples_per_category = 12;

  save_checkpoint(path, make_checkpoint(gen1, cfg));
  save_checkpoint(path, make_checkpoint(gen2, cfg));  // rotates gen1 to .prev
  ASSERT_TRUE(file_exists(path + ".prev"));

  // Flip one byte mid-file: the CRC catches it, the bad file moves to
  // .corrupt for post-mortems, and the previous generation answers.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(c ^ 0x01);
  }
  const CampaignCheckpoint recovered = load_checkpoint(path);
  EXPECT_EQ(recovered.partial.diagnostics.measurements_recorded, 6u);
  EXPECT_TRUE(file_exists(path + ".corrupt"));
  EXPECT_FALSE(file_exists(path));
}

TEST(CheckpointDurability, CorruptFileWithoutPrevThrows) {
  const std::string path = scratch_path("sce_sup_durable_noprev.json");
  const CampaignResult partial =
      testing::synthetic_campaign({10.0, 20.0}, 1.0, 3);
  CampaignConfig cfg;
  cfg.categories = {0, 1};
  save_checkpoint(path, make_checkpoint(partial, cfg));

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(25);
    f.put('!');
  }
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
  EXPECT_TRUE(file_exists(path + ".corrupt"));
}

/// `json` with its top-level "version" stamp replaced by `version`.
std::string with_version(std::string json, int version) {
  const std::size_t key = json.find("\"version\"");
  const std::size_t begin = json.find(':', key) + 1;
  const std::size_t end = json.find_first_of(",}", begin);
  return json.replace(begin, end - begin, " " + std::to_string(version));
}

TEST(CheckpointDurability, FooterlessAndV2FilesAreRejected) {
  const CampaignResult partial =
      testing::synthetic_campaign({10.0, 20.0}, 1.0, 4);
  CampaignConfig cfg;
  cfg.categories = {0, 1};
  cfg.samples_per_category = 8;
  const std::string body = checkpoint_to_json(make_checkpoint(partial, cfg));
  ASSERT_EQ(checkpoint_from_json(body).samples_per_category, 8u);

  // Only the current version is read: older (and nonsensical) stamps
  // are foreign documents.
  for (int version : {-1, 0, 1, 2, 4})
    EXPECT_THROW(checkpoint_from_json(with_version(body, version)),
                 InvalidArgument)
        << "version " << version;

  // A bare JSON document (the pre-CRC layout) cannot be verified: it is
  // quarantined like any corrupt file.
  for (int version : {2, 3}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path = scratch_path("sce_sup_footerless.json");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << with_version(body, version);
    }
    EXPECT_THROW(load_checkpoint(path), InvalidArgument);
    EXPECT_TRUE(file_exists(path + ".corrupt"));
    EXPECT_FALSE(file_exists(path));
  }
}

// --- Sweep supervision and resume --------------------------------------------

std::vector<SweepPoint> small_grid() {
  hpc::SimulatedPmuConfig quiet;
  quiet.environment = hpc::SimulatedPmuConfig::no_environment();

  std::vector<SweepPoint> grid;
  grid.push_back({"default", hpc::SimulatedPmuConfig{}});  // keyed noise
  {
    hpc::SimulatedPmuConfig c = quiet;
    c.cold_start_per_measurement = false;  // warm: carries state
    grid.push_back({"warm", c});
  }
  {
    hpc::SimulatedPmuConfig c = quiet;
    c.pollution_period = 64;  // polluted: carries state
    c.noise_seed = 7;
    grid.push_back({"polluted", c});
  }
  return grid;
}

SweepConfig small_sweep(std::size_t samples = 3) {
  SweepConfig cfg;
  cfg.categories = {0, 1, 2, 3};
  cfg.samples_per_category = samples;
  cfg.warmup_measurements = 1;
  cfg.grid = small_grid();
  return cfg;
}

bool same_sweep_points(const SweepResult& a, const SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t g = 0; g < a.points.size(); ++g) {
    if (a.points[g].label != b.points[g].label) return false;
    if (!same_samples(a.points[g].result, b.points[g].result)) return false;
  }
  return true;
}

TEST(SweepSupervision, CadenceCheckpointsResumeBitForBitAcrossThreadCounts) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  const std::string path = scratch_path("sce_sweep_ckpt.json");

  SweepConfig cfg = small_sweep();  // 12 slots
  cfg.checkpoint_path = path;
  cfg.checkpoint_every_slots = 5;  // flushes at slot 5 and 10
  cfg.num_threads = 1;

  auto instruments = trace_pure_factory();
  Campaign recorder(model, ds, instruments);
  const SweepResult full = recorder.sweep(cfg);
  ASSERT_EQ(full.status(), RunStatus::kComplete);
  ASSERT_EQ(full.slots_completed, 12u);

  // The cadence left two generations behind: slot 10 live, slot 5 in
  // .prev — two genuinely mid-run kill points, for free.
  struct Cut {
    std::string file;
    std::size_t slots;
  };
  for (const Cut& cut : {Cut{path, 10}, Cut{path + ".prev", 5}}) {
    SCOPED_TRACE(cut.file);
    const SweepCheckpoint cp = load_sweep_checkpoint(cut.file);
    EXPECT_EQ(cp.slots_completed, cut.slots);
    EXPECT_EQ(cp.partial.status(), RunStatus::kPartial);

    // Resume at a different thread count, through the same Campaign:
    // its cached recording plan is what keeps the re-recorded catch-up
    // traces byte-comparable with the ones behind the checkpointed
    // prefix (simulated counts depend on the buffers' page offsets).
    SweepConfig rest = small_sweep();
    rest.num_threads = 3;
    const SweepResult resumed = recorder.resume_sweep(rest, cp);

    EXPECT_EQ(resumed.status(), RunStatus::kComplete);
    EXPECT_EQ(resumed.slots_completed, 12u);
    EXPECT_EQ(resumed.stop_reason, StopReason::kCompleted);
    EXPECT_TRUE(same_sweep_points(resumed, full));
  }
}

TEST(SweepSupervision, VerifyLiveSurvivesResume) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  const std::string path = scratch_path("sce_sweep_live_ckpt.json");

  SweepConfig cfg = small_sweep();
  cfg.verify_live = true;
  cfg.checkpoint_path = path;
  cfg.checkpoint_every_slots = 7;

  auto instruments = trace_pure_factory();
  Campaign recorder(model, ds, instruments);
  const SweepResult full = recorder.sweep(cfg);
  ASSERT_EQ(full.stats.live_mismatches, 0u);

  const SweepCheckpoint cp = load_sweep_checkpoint(path);
  EXPECT_EQ(cp.slots_completed, 7u);

  SweepConfig rest = cfg;
  rest.cancel = util::CancelToken();
  rest.checkpoint_path.clear();
  rest.checkpoint_every_slots = 0;
  rest.num_threads = 2;
  const SweepResult resumed = recorder.resume_sweep(rest, cp);

  EXPECT_EQ(resumed.status(), RunStatus::kComplete);
  // The live rigs replayed the completed prefix without scoring it, so
  // the continuation still verifies clean.
  EXPECT_EQ(resumed.stats.live_mismatches, 0u);
  EXPECT_TRUE(same_sweep_points(resumed, full));
}

TEST(SweepSupervision, TrippedTokenReturnsPartialWithCheckpoint) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  const std::string path = scratch_path("sce_sweep_cancel.json");

  // One Campaign throughout: repeated sweep()/resume_sweep() calls share
  // the cached recording plan, which is what makes their counts
  // bit-comparable (see Campaign::sweep).
  auto instruments = trace_pure_factory();
  Campaign campaign(model, ds, instruments);
  const SweepResult reference = campaign.sweep(small_sweep());

  SweepConfig cfg = small_sweep();
  cfg.checkpoint_path = path;
  cfg.cancel.cancel("operator abort");  // tripped before the first slot
  const SweepResult partial = campaign.sweep(cfg);

  EXPECT_EQ(partial.status(), RunStatus::kPartial);
  EXPECT_EQ(partial.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(partial.slots_completed, 0u);

  const SweepCheckpoint cp = load_sweep_checkpoint(path);
  const SweepResult resumed = campaign.resume_sweep(small_sweep(), cp);
  EXPECT_EQ(resumed.status(), RunStatus::kComplete);
  EXPECT_TRUE(same_sweep_points(resumed, reference));
}

TEST(SweepSupervision, PreExpiredDeadlineReportsDeadline) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();

  SweepConfig cfg = small_sweep();
  cfg.checkpoint_path = scratch_path("sce_sweep_deadline.json");
  cfg.cancel.set_deadline_after(0ms);
  auto instruments = trace_pure_factory();
  Campaign campaign(model, ds, instruments);
  const SweepResult partial = campaign.sweep(cfg);

  EXPECT_EQ(partial.status(), RunStatus::kPartial);
  EXPECT_EQ(partial.stop_reason, StopReason::kDeadline);
}

TEST(SweepSupervision, ResumeRejectsMismatchedSchedule) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  const std::string path = scratch_path("sce_sweep_reject.json");

  SweepConfig cfg = small_sweep();
  cfg.checkpoint_path = path;
  cfg.cancel.cancel("stop at zero");
  auto instruments = trace_pure_factory();
  Campaign campaign(model, ds, instruments);
  (void)campaign.sweep(cfg);
  const SweepCheckpoint cp = load_sweep_checkpoint(path);

  SweepConfig other = small_sweep(/*samples=*/4);
  auto instruments_b = trace_pure_factory();
  Campaign resumer(model, ds, instruments_b);
  EXPECT_THROW(resumer.resume_sweep(other, cp), InvalidArgument);

  SweepConfig reordered = small_sweep();
  std::swap(reordered.grid[0], reordered.grid[1]);
  EXPECT_THROW(resumer.resume_sweep(reordered, cp), InvalidArgument);
}

TEST(SweepSupervision, CheckpointJsonRejectsForeignDocuments) {
  EXPECT_THROW(sweep_checkpoint_from_json("{}"), InvalidArgument);
  EXPECT_THROW(sweep_checkpoint_from_json("[1,2]"), InvalidArgument);
  EXPECT_THROW(sweep_checkpoint_from_json("not json"), InvalidArgument);

  // v3 is the only sweep layout that ever existed.
  const std::string body = sweep_checkpoint_to_json(SweepCheckpoint{});
  ASSERT_NO_THROW(sweep_checkpoint_from_json(body));
  for (int version : {-1, 0, 1, 2, 4})
    EXPECT_THROW(sweep_checkpoint_from_json(with_version(body, version)),
                 InvalidArgument)
        << "version " << version;

  // A footerless file is quarantined, not trusted.
  const std::string path = scratch_path("sce_sweep_footerless.json");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
  }
  EXPECT_THROW(load_sweep_checkpoint(path), InvalidArgument);
  EXPECT_TRUE(file_exists(path + ".corrupt"));
}

// --- Fixed-vs-random supervision ----------------------------------------------

TEST(FvrSupervision, TrippedTokenAbortsWithTaxonomyError) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  auto instruments = trace_pure_factory();
  Campaign campaign(model, ds, instruments);

  FixedVsRandomConfig cancelled;
  cancelled.samples_per_population = 40;
  cancelled.num_shards = 2;
  cancelled.cancel.cancel("operator abort");
  EXPECT_THROW(campaign.fixed_vs_random(cancelled), Cancelled);

  FixedVsRandomConfig late;
  late.samples_per_population = 40;
  late.num_shards = 2;
  late.cancel.set_deadline_after(0ms);
  EXPECT_THROW(campaign.fixed_vs_random(late), DeadlineExceeded);
}

TEST(FvrSupervision, LostInstrumentFailsOverBitForBit) {
  const nn::Sequential model = tiny_model();
  const data::Dataset ds = tiny_dataset();
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 40;
  cfg.num_shards = 3;

  auto healthy = trace_pure_factory();
  const FixedVsRandomResult reference =
      Campaign(model, ds, healthy).fixed_vs_random(cfg);

  // Shard 1's rig dies after a handful of reads; its pairs are measured
  // on the surviving rigs under the same slot keys.
  auto dying = dying_factory({1}, /*die_after_reads=*/5);
  const FixedVsRandomResult failed_over =
      Campaign(model, ds, dying).fixed_vs_random(cfg);
  for (hpc::HpcEvent e : hpc::all_events()) {
    SCOPED_TRACE(hpc::to_string(e));
    EXPECT_EQ(failed_over.of(e).full.t, reference.of(e).full.t);
    EXPECT_EQ(failed_over.of(e).leaks, reference.of(e).leaks);
  }
}

}  // namespace
}  // namespace sce::core
