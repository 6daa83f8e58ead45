// Record-once / replay-many hardware sweep.
//
// A sweep answers the question the microarchitectural ablations keep
// asking — "which hardware leaks most?" — without re-running the
// network for every candidate configuration.  Campaign::sweep()
// records each measurement slot's dynamic trace once (uarch::TraceBuffer)
// and replays it across a grid of SimulatedPmu configurations, yielding
// one CampaignResult per grid point that is bit-identical to a live
// serial campaign run at that configuration (tests/core/sweep_test.cpp).
//
// The replay work is deduplicated by *component class*, exploiting the
// simulated PMU's structure: loads/stores drive only the TLB and cache
// hierarchy (with next-line prefetch and pollution), conditional
// branches drive only the predictor, and the remaining counts are
// tallies off the trace summary.  Grid points sharing a memory configuration share one
// memory replay per slot; points sharing a predictor share one branch
// replay; the full eight-event sample is assembled per point via
// hpc::assemble_workload_counts and the keyed environment overlay.
// Cold, pollution-free classes additionally cache their per-input
// counts, so repeated inputs cost nothing to re-measure.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "hpc/simulated_pmu.hpp"
#include "util/cancel.hpp"

namespace sce::core {

/// One grid point: a label for reports plus the full PMU configuration
/// to evaluate (hierarchy geometry, predictor, core model, cold/warm,
/// pollution, environment, noise seed).
struct SweepPoint {
  std::string label;
  hpc::SimulatedPmuConfig pmu;
};

struct SweepConfig {
  /// Acquisition schedule — the same knobs (and semantics) as the
  /// matching CampaignConfig fields, so a sweep point reproduces the
  /// live campaign with these settings bit-for-bit.
  std::vector<int> categories = {0, 1, 2, 3};
  std::size_t samples_per_category = 100;
  nn::KernelMode kernel_mode = nn::KernelMode::kDataDependent;
  bool allow_image_reuse = true;
  bool interleave_categories = true;
  std::size_t warmup_measurements = 2;

  /// Worker threads replaying component classes (0 = one per class,
  /// 1 = serial).  Purely an execution knob: per-point results are
  /// bit-identical at any thread count.
  std::size_t num_threads = 0;

  /// Also run the classic rerun loop alongside the replay engine: every
  /// grid point gets its own live SimulatedPmu, and every slot is
  /// re-executed through the shared plan into each of them under the
  /// same measurement keys.  Every live eight-event sample is compared
  /// against the composed replay sample; mismatches are counted in
  /// SweepStats::live_mismatches (a correct engine reports 0) and the
  /// rerun loop's cost lands in live_seconds — the baseline for the
  /// sweep's speedup claim.  The live path shares the recording plan, so
  /// the comparison is exact: buffer offsets (which the simulated cache
  /// counters depend on) are identical by construction.
  bool verify_live = false;

  /// The configurations to evaluate.
  std::vector<SweepPoint> grid;

  // --- Supervision (same semantics as the CampaignConfig knobs) --------
  /// Cooperative cancel handle, polled between slots.  A tripped token
  /// flushes a checkpoint (when checkpoint_path is set) and returns a
  /// Partial SweepResult instead of throwing.
  util::CancelToken cancel;
  /// Wall-clock budget for this sweep (0 = none), armed on a child of
  /// `cancel`.
  std::chrono::milliseconds deadline{0};

  /// Checkpoint file; written every `checkpoint_every_slots` completed
  /// slots and on any supervision stop.  May be set with the cadence at
  /// 0 for stop-only flushing.
  std::string checkpoint_path;
  std::size_t checkpoint_every_slots = 0;

  /// Throws util-error InvalidArgument on the first violation.
  void validate() const;
};

/// What the record/replay engine did — the accounting behind the
/// sweep's speedup claim.
struct SweepStats {
  std::size_t grid_points = 0;
  /// Distinct memory-side classes {hierarchy, cold, pollution, seed}.
  std::size_t memory_classes = 0;
  /// Distinct branch-side classes {predictor, cold}.
  std::size_t branch_classes = 0;
  /// Traces recorded (warmup + measurement slots); each is one
  /// execution of the instrumented network.
  std::size_t traces_recorded = 0;
  /// Component replays performed across all classes and slots.
  std::size_t replays = 0;
  /// Replays skipped because a cold class had already measured the
  /// slot's input.
  std::size_t replay_cache_hits = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_bytes = 0;
  double record_seconds = 0.0;
  double replay_seconds = 0.0;

  // Populated only under SweepConfig::verify_live.
  std::size_t live_runs = 0;
  std::size_t live_mismatches = 0;
  double live_seconds = 0.0;
};

struct SweepPointResult {
  std::string label;
  CampaignResult result;
};

struct SweepResult {
  /// One entry per grid point, in grid order.
  std::vector<SweepPointResult> points;
  SweepStats stats;

  /// Measurement slots fully assembled across every grid point, in
  /// global (serial acquisition) slot order.  ncat * samples_per_category
  /// when complete.
  std::size_t slots_completed = 0;
  /// False when supervision stopped the sweep early; every point then
  /// holds the same `slots_completed`-slot prefix of the full result.
  bool complete = true;
  StopReason stop_reason = StopReason::kCompleted;

  RunStatus status() const {
    return complete ? RunStatus::kComplete : RunStatus::kPartial;
  }

  /// Result of the point with this label; throws InvalidArgument if the
  /// label is unknown.
  const CampaignResult& of(const std::string& label) const;
};

/// Resumable snapshot of an interrupted sweep: the acquisition schedule,
/// the component-class structure of the grid (for validation), the slot
/// cursor, and every point's partial samples.  Like the campaign
/// checkpoint, the file carries a CRC32 footer and is written durably
/// (see core/checkpoint.hpp); resume is valid at any num_threads — the
/// per-trace replay barrier keeps results bit-identical regardless.
struct SweepCheckpoint {
  /// Version of the sweep checkpoint layout (introduced at 3, alongside
  /// the campaign checkpoint's supervision revision).
  int version = 3;
  std::size_t samples_per_category = 0;
  bool interleave_categories = true;
  std::size_t warmup_measurements = 0;
  bool verify_live = false;
  std::string kernel_mode;
  std::vector<int> categories;
  /// Grid labels in grid order, plus each point's memory/branch
  /// component class — the dedup structure the samples were produced
  /// under.  A resume with a reordered or re-deduplicated grid is
  /// rejected rather than silently misattributed.
  std::vector<std::string> grid_labels;
  std::vector<std::size_t> mem_class_of;
  std::vector<std::size_t> br_class_of;
  /// Slots completed (== every point's appended sample count).
  std::size_t slots_completed = 0;
  /// points[g].result.samples hold each point's prefix cells.
  SweepResult partial;
};

/// Snapshot an interrupted sweep (points carry `slots_completed` slots).
std::string sweep_checkpoint_to_json(const SweepCheckpoint& checkpoint);
/// Throws InvalidArgument on malformed or version-incompatible input.
SweepCheckpoint sweep_checkpoint_from_json(const std::string& json);
/// Durable write with CRC footer (shares the campaign checkpoint's
/// write path: tmp + fsync + .prev rotation + rename + dir fsync).
void save_sweep_checkpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint);
/// CRC-verified load with .corrupt quarantine and .prev fallback.
SweepCheckpoint load_sweep_checkpoint(const std::string& path);

}  // namespace sce::core
