// Measurement campaign: the data-acquisition half of the paper's
// evaluator (Section 4, step 1).
//
// For each input category the campaign classifies N images of that
// category while a CounterProvider measures the hardware events of each
// classification, yielding one distribution per (event, category) cell.
//
// Acquisition is fault-tolerant: transient provider failures are retried
// under a bounded RetryPolicy, samples missing expected events are
// discarded and re-measured, an event that stays missing is dropped from
// the campaign (its cells cleared, the drop reported).  Everything the
// campaign absorbed or discarded is accounted for in CampaignDiagnostics,
// and partial progress can be checkpointed to JSON and resumed (see
// core/checkpoint.hpp).  A run stops early only through its CancelToken
// (an explicit cancel or the wall-clock deadline).
//
// Acquisition is sharded: the per-category sample budget is partitioned
// deterministically into `num_shards` contiguous index ranges, each shard
// owns its own InferencePlan, staging tensor and Instrument (minted by an
// InstrumentFactory), and shard results are merged in shard order.  Every
// measurement is keyed by its global slot index
// (CounterProvider::set_measurement_key), so a keyed provider's noise and
// fault streams depend on the slot, not on execution order — a parallel
// run is bit-identical to the same campaign executed serially at any
// thread count.  The entry point is core::Campaign.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "hpc/counter_provider.hpp"
#include "hpc/instrument_factory.hpp"
#include "nn/model.hpp"
#include "uarch/trace.hpp"
#include "util/cancel.hpp"
#include "util/retry.hpp"

namespace sce::nn {
class InferencePlan;
}

namespace sce::core {

/// Whether a run delivered everything it was asked for.  A Partial
/// result is still valid data — every recorded cell is complete and
/// resumable — it just stopped before the full budget.
enum class RunStatus { kComplete, kPartial };

/// Why a run returned when it did.  Everything except kCompleted means
/// status() == kPartial (and, when a checkpoint path is configured, a
/// flushed checkpoint to resume from).
enum class StopReason {
  kCompleted,  ///< full sample budget acquired
  kCancelled,  ///< the run's CancelToken was tripped
  kDeadline,   ///< the run's wall-clock deadline expired
};

std::string to_string(StopReason reason);
/// Inverse of to_string; throws InvalidArgument on unknown names.
StopReason parse_stop_reason(const std::string& name);

struct CampaignConfig {
  /// Class labels to profile (the paper uses four categories per dataset).
  std::vector<int> categories = {0, 1, 2, 3};
  /// Classifications measured per category.
  std::size_t samples_per_category = 100;
  /// Kernel implementation under evaluation.
  nn::KernelMode kernel_mode = nn::KernelMode::kDataDependent;
  /// Reuse images cyclically if the dataset has fewer than
  /// samples_per_category examples of a class.
  bool allow_image_reuse = true;
  /// Acquire measurements round-robin across categories instead of one
  /// category block at a time.  Interleaving cancels slow environmental
  /// drift (allocator warm-up, frequency ramps) that would otherwise
  /// masquerade as a between-category difference — the same reason the
  /// TVLA protocol interleaves its fixed and random populations.
  bool interleave_categories = true;
  /// Classifications run and discarded before recording starts, letting
  /// the process reach a steady state.  Each shard warms up its own
  /// instrument and plan.
  std::size_t warmup_measurements = 2;

  // --- Sharding ---------------------------------------------------------

  /// Shards the per-category sample budget is partitioned into.  Each
  /// shard owns an independent instrument/plan and acquires a contiguous
  /// range of every category's sample indices; the merge concatenates the
  /// ranges back in index order.  1 = the classic serial campaign.
  std::size_t num_shards = 1;
  /// Worker threads executing the shards (0 = one thread per shard).
  /// Purely an execution knob: results are bit-identical at any thread
  /// count, because shard state is never shared between threads.
  std::size_t num_threads = 0;

  // --- Fault tolerance -------------------------------------------------

  /// Retry budget per measurement slot for transient provider failures
  /// (util::TransientFailure) and for samples missing expected events.
  util::RetryPolicy retry{};
  /// Abort (throw Error) once this many measurement slots have exhausted
  /// their retry budget — the provider is beyond salvage.  Sharded runs
  /// apply the cap per shard and to the merged total.
  std::size_t max_failed_measurements = 100;

  // --- Supervision ------------------------------------------------------

  /// Cooperative cancel handle.  Shards poll it between measurement
  /// attempts and the coordinator polls it between chunks; once tripped,
  /// the run flushes a checkpoint (when checkpoint_path is set) and
  /// returns a Partial result with StopReason::kCancelled instead of
  /// throwing.  Copies share state — hand the same token to whatever
  /// should be able to stop this run.
  util::CancelToken cancel;
  /// Wall-clock budget for this run() call (0 = none).  Internally a
  /// deadline armed on a child of `cancel`; expiry stops the run the
  /// same cooperative way with StopReason::kDeadline.
  std::chrono::milliseconds deadline{0};
  /// Consecutive retry-exhausted slots on one instrument before that
  /// instrument is declared lost (util-error InstrumentLost) and its
  /// shard's remaining slots fail over to healthy instruments (0 =
  /// failover off; exhausted slots then only count toward
  /// max_failed_measurements as before).  Because every measurement is
  /// keyed by its global slot index, the requeued slots record the same
  /// values a fault-free run would — the merged result is bit-identical
  /// for providers whose values do not depend on the rig instance.
  std::size_t instrument_lost_after = 0;

  // --- Checkpoint -------------------------------------------------------

  /// Write a checkpoint to `checkpoint_path` every this many recorded
  /// measurements (0 disables checkpointing).  Sharded runs checkpoint at
  /// the chunk barrier that lands on each multiple.
  std::size_t checkpoint_every = 0;
  /// Destination file for checkpoints (required if checkpoint_every > 0).
  /// May also be set with checkpoint_every == 0: the run then checkpoints
  /// only when supervision stops it (cancel/deadline or a lost final
  /// instrument), so an evicted job is always resumable.
  std::string checkpoint_path;

  /// Field validation (ranges, required pairings).  Throws a structured
  /// util-error ValidationError (domain/field/constraint) on the first
  /// violation; checks that need the dataset (label ranges, pool sizes)
  /// happen in Campaign::run().  Every campaign-facing config follows
  /// this convention — see FixedVsRandomConfig::validate(),
  /// SweepConfig::validate() and OnlineConfig::validate(); the
  /// evaluation service relays the same structured fields as its
  /// rejection replies.
  void validate() const;
};

/// Everything the fault-tolerant acquisition absorbed, discarded or
/// degraded, so a campaign that survived faults cannot silently
/// masquerade as a clean one.
struct CampaignDiagnostics {
  /// Instrumented classifications attempted (recorded + discarded + failed,
  /// excluding warmup).
  std::size_t measurements_attempted = 0;
  /// Measurements that made it into the distributions.
  std::size_t measurements_recorded = 0;
  /// Attempts aborted by a transient provider failure (and retried).
  std::size_t transient_faults = 0;
  /// Slots whose whole retry budget was exhausted.
  std::size_t failed_measurements = 0;
  /// Samples discarded because an expected event was missing.
  std::size_t incomplete_samples = 0;
  /// Per-event count of samples the event was missing from.
  std::array<std::size_t, hpc::kNumEvents> missing_event_counts{};
  /// Events dropped mid-campaign after persistent loss; their cells are
  /// cleared and excluded from the result.
  std::vector<hpc::HpcEvent> dropped_events;
  /// Events the provider never offered (e.g. a PMU without ref-cycles).
  std::vector<hpc::HpcEvent> unsupported_events;
  /// True when every cell reached samples_per_category.
  bool complete = false;
  /// Why the run returned (kCompleted iff complete).
  StopReason stop_reason = StopReason::kCompleted;
  /// Shards whose instrument was declared lost (InstrumentLost) during
  /// this campaign, cumulative across resumed legs.
  std::vector<std::size_t> lost_instrument_shards;
  /// Measurements recorded on a healthy instrument on behalf of a shard
  /// whose own instrument had been lost (the failover path).
  std::size_t failed_over_measurements = 0;
  /// True if this result continued from a checkpoint.
  bool resumed = false;
  std::size_t checkpoints_written = 0;
  /// shard_recorded[shard][category] = measurements that shard contributed
  /// to the category's cell.  This is the merge map: a cell is the
  /// concatenation of its shards' segments in shard order, so with this
  /// matrix a partial result can be split back into per-shard state (how
  /// a checkpoint resumes mid-parallel runs).  Serial results carry one
  /// row; a one-row matrix resumes at any shard count.
  std::vector<std::vector<std::size_t>> shard_recorded;

  bool event_dropped(hpc::HpcEvent event) const;
  bool event_unsupported(hpc::HpcEvent event) const;
  /// One human-readable line, e.g. for campaign drivers' logs.
  std::string summary() const;
};

/// Distributions of every HPC event for every profiled category.
struct CampaignResult {
  std::vector<int> categories;
  std::vector<std::string> category_names;
  /// samples[event][category_index] = one value per classification.
  /// Cells of dropped/unsupported events are empty.
  std::array<std::vector<std::vector<double>>, hpc::kNumEvents> samples;
  CampaignDiagnostics diagnostics;

  const std::vector<double>& of(hpc::HpcEvent event,
                                std::size_t category_index) const;
  /// kComplete when the full budget was acquired, kPartial otherwise
  /// (see diagnostics.stop_reason for why the run returned early).
  RunStatus status() const {
    return diagnostics.complete ? RunStatus::kComplete : RunStatus::kPartial;
  }
  std::size_t category_count() const { return categories.size(); }
  /// True when this event's cells hold data (not dropped/unsupported).
  bool has_event(hpc::HpcEvent event) const;

  /// Mean of an (event, category) distribution.
  double mean(hpc::HpcEvent event, std::size_t category_index) const;
};

/// Progress snapshot handed to Campaign::on_progress at every chunk
/// barrier (and once more when the run ends).
struct CampaignProgress {
  /// Total recorded so far, including measurements inherited from a
  /// resumed checkpoint.
  std::size_t measurements_recorded = 0;
  /// categories * samples_per_category.
  std::size_t measurements_target = 0;
  std::size_t shards = 1;
  std::size_t checkpoints_written = 0;
};

struct CampaignCheckpoint;
struct FixedVsRandomConfig;
struct FixedVsRandomResult;
struct SweepConfig;
struct SweepResult;
struct SweepCheckpoint;

/// The campaign entry point: binds a model, a dataset and an
/// InstrumentFactory, then runs (or resumes) sharded acquisition.
///
///   hpc::SimulatedPmuFactory instruments;
///   core::CampaignConfig config;
///   config.num_shards = 4;
///   auto result = core::Campaign(model, dataset, instruments)
///                     .with_config(config)
///                     .run();
///
/// The model, dataset and factory are borrowed and must outlive the
/// Campaign.  A Campaign is reusable: run()/resume() may be called
/// repeatedly (each call mints fresh instruments from the factory).
class Campaign {
 public:
  using ProgressCallback = std::function<void(const CampaignProgress&)>;

  Campaign(const nn::Sequential& model, const data::Dataset& dataset,
           hpc::InstrumentFactory& instruments);
  ~Campaign();

  /// Replace the config (validated at run time).
  Campaign& with_config(CampaignConfig config);
  /// Install a progress callback, invoked from the coordinating thread at
  /// chunk barriers.  `every` is the reporting granularity in recorded
  /// measurements (0 = auto, ~1/16 of the remaining budget).
  Campaign& on_progress(ProgressCallback callback, std::size_t every = 0);

  const CampaignConfig& config() const { return config_; }

  /// Run the campaign: classify sampled images of each category under
  /// measurement.  The classifier's *output* is ignored — only its
  /// hardware footprint matters, exactly as for the paper's evaluator,
  /// which cannot see the user's data.
  CampaignResult run();

  /// Validate `checkpoint` against the config (categories, sample budget,
  /// schedule, kernel mode, shard layout) and continue acquisition from
  /// it.  The partial result's shard_recorded matrix is the cursor.
  CampaignResult resume(const CampaignCheckpoint& checkpoint);

  /// Run the TVLA fixed-vs-random screen with this campaign's model,
  /// dataset and instruments, on the same sharded executor as run()
  /// (sharded under config.num_shards of the screen's own config).
  /// Defined in core/fixed_vs_random.cpp.
  FixedVsRandomResult fixed_vs_random(const FixedVsRandomConfig& config) const;

  /// Record-once/replay-many hardware sweep: record each measurement
  /// slot's trace once and replay it across a grid of simulated-PMU
  /// configurations, yielding per-point results bit-identical to the
  /// live serial acquisition loop run through the same plan (see
  /// core/sweep.hpp).  Uses this campaign's model and dataset; the grid
  /// supplies its own instruments, so the bound InstrumentFactory is
  /// not consulted.  Repeated sweep() calls on one Campaign share a
  /// cached recording plan, which keeps their buffer layout — and
  /// therefore their counts — identical across calls.  Defined in
  /// core/sweep.cpp.
  SweepResult sweep(const SweepConfig& config);

  /// Resume an interrupted sweep from its checkpoint: completed slots'
  /// traces are re-recorded and replayed into the stateful component
  /// classes only (cacheable classes carry no cross-measurement state),
  /// after which acquisition continues from the slot cursor.  The final
  /// result is bit-identical to an uninterrupted sweep, at any
  /// num_threads — provided the resuming Campaign's recording layout
  /// matches the one that wrote the checkpoint (the simulated counts
  /// depend on the staging buffers' page offsets).  In-process that
  /// means resuming on the same Campaign, whose plan cache guarantees
  /// it; across processes it holds whenever the recorded counts are
  /// invariant to buffer placement.  Defined in core/sweep.cpp.
  SweepResult resume_sweep(const SweepConfig& config,
                           const SweepCheckpoint& checkpoint);

  const nn::Sequential& model() const { return model_; }
  const data::Dataset& dataset() const { return dataset_; }
  hpc::InstrumentFactory& instruments() const { return instruments_; }

 private:
  /// The sharded slot executor behind run(), resume() and
  /// fixed_vs_random(): acquires cfg.samples_per_category measurements
  /// from each of `pools` (one cell per pool, in pool order) on top of
  /// `partial`, whose cells it resumes from.
  CampaignResult run_internal(
      const CampaignConfig& cfg,
      const std::vector<std::vector<const data::Example*>>& pools,
      CampaignResult partial) const;

  const nn::Sequential& model_;
  const data::Dataset& dataset_;
  hpc::InstrumentFactory& instruments_;
  CampaignConfig config_{};
  ProgressCallback progress_;
  std::size_t progress_every_ = 0;

  /// Shared implementation of sweep()/resume_sweep() (resume may be
  /// null).  Defined in core/sweep.cpp.
  SweepResult sweep_internal(const SweepConfig& config,
                             const SweepCheckpoint* resume);

  /// Recording scaffolding cached across sweep() calls.  The staging
  /// tensor and plan are allocated once because the simulated counters
  /// depend on the buffers' within-page offsets: sharing them is what
  /// makes two sweeps of one Campaign bit-comparable.
  nn::Tensor sweep_staged_;
  std::unique_ptr<nn::InferencePlan> sweep_plan_;
};

// The pre-Campaign free functions (run_campaign, resume_campaign,
// run_fixed_vs_random, make_instrument and the provider/sink Instrument
// pair) survived one release as [[deprecated]] wrappers after PR 4 and
// were removed on schedule; see DESIGN.md §10.

}  // namespace sce::core
