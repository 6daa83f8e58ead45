// Job model of the leakage-evaluation service.
//
// A submission is (model, JobConfig): the model arrives as canonical
// nn/serialize bytes, the config names a synthetic dataset recipe plus
// the campaign and evaluator knobs.  Everything that can change the
// *result* lives in the config's digest preimage; scheduling-only fields
// (priority, deadline) are deliberately excluded, so two tenants asking
// for the same evaluation at different priorities share one cache entry.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "data/dataset.hpp"
#include "nn/layer.hpp"
#include "util/json.hpp"

namespace sce::service {

/// Scheduling priority.  Higher runs first; a queued kHigh job may
/// cooperatively preempt a running kLow one (see server.hpp).
enum class Priority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

std::string to_string(Priority priority);
/// Inverse of to_string ("low" | "normal" | "high"); throws
/// InvalidArgument on unknown names.
Priority parse_priority(const std::string& name);

/// Job lifecycle.  kPreempted is queued-with-checkpoint: the job was
/// evicted from its executor, its durable checkpoint flushed, and it
/// re-enters the ready queue to resume bit-identically.
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kPreempted,
  kCompleted,
  kCancelled,
  kFailed,
  kRejected,
};

std::string to_string(JobState state);
bool is_terminal(JobState state);

/// Recipe for the server-side synthetic dataset a campaign profiles.
/// Part of the config digest: the recipe *is* the dataset's identity
/// (generation is deterministic in (kind, seed, index, label)).
struct DatasetSpec {
  /// "mnist-like" (1x28x28), "cifar-like" (3x32x32) or "sequence-like"
  /// ({1,T,8} waveforms).
  std::string kind = "mnist-like";
  std::uint64_t seed = 1;
  std::size_t examples_per_class = 8;
  std::size_t num_classes = 10;
  /// Center-crop image datasets to crop x crop pixels (0 = full size).
  /// Lets small test models (12x12 inputs) ride the same pipeline;
  /// rejected for sequence-like data.
  std::size_t crop = 0;
};

/// Admission caps on what one job may make the server allocate or run:
/// rigs and plans (one per shard, built before the first measurement),
/// campaign worker threads, synthesised examples per class (generated
/// inside submit()), and the measurements one executor spends on the
/// job.  Every shipped caller uses 1 shard, 1 thread, 8 examples, at
/// most 100 samples per category, 2 warm-up measurements and four
/// distinct categories.  kMaxCategories is the most classes any dataset
/// kind has; it bounds the list before its labels are checked one by one.
inline constexpr std::size_t kMaxCategories = 10;
inline constexpr std::size_t kMaxJobShards = 64;
inline constexpr std::size_t kMaxJobThreads = 64;
inline constexpr std::size_t kMaxExamplesPerClass = 1000;
inline constexpr std::size_t kMaxSamplesPerCategory = 10000;
inline constexpr std::size_t kMaxWarmupMeasurements = 1000;

/// Everything a tenant controls about one evaluation job.
struct JobConfig {
  DatasetSpec dataset;
  /// Input categories to profile (the paper uses four per dataset).
  std::vector<int> categories = {0, 1, 2, 3};
  std::size_t samples_per_category = 8;
  nn::KernelMode kernel_mode = nn::KernelMode::kDataDependent;
  /// Campaign sharding (affects simulated counters for address-dependent
  /// providers, hence part of the digest).
  std::size_t num_shards = 1;
  /// Worker threads for the campaign's own sharded fan-out (execution
  /// knob only: results are bit-identical at any thread count).
  std::size_t num_threads = 1;
  std::size_t warmup_measurements = 2;
  bool interleave_categories = true;
  /// Evaluator significance level for the final report.
  double alpha = 0.05;

  // --- Scheduling-only (excluded from the digest) ----------------------
  Priority priority = Priority::kNormal;
  /// Wall-clock budget per executed leg (0 = none).  A blown deadline
  /// fails the job; it does not requeue.
  std::chrono::milliseconds deadline{0};

  /// Structured validation (util-error ValidationError, domain "job").
  /// Composes the campaign-level checks: the derived CampaignConfig is
  /// validated too, so a job can never be admitted that the campaign
  /// would reject at run time.
  void validate() const;
};

/// Deterministic JSON preimage of the config digest: result-affecting
/// fields only, fixed key order, exact number rendering.
std::string canonical_config_json(const JobConfig& config);

/// content_digest_hex(canonical_config_json(config)) — the cache key's
/// second half and the checkpoint-name ingredient.
std::string config_digest(const JobConfig& config);

/// Materialize the dataset the spec describes.  Deterministic.
data::Dataset make_dataset(const DatasetSpec& spec);

/// CHW input shape a model must accept for this dataset (what the lint
/// admission gate analyzes against).
std::vector<std::size_t> dataset_input_shape(const DatasetSpec& spec);

/// Lower the job config onto the campaign runtime.  Supervision wiring
/// (cancel token, checkpoint path) is the scheduler's job and left
/// untouched here.
core::CampaignConfig to_campaign_config(const JobConfig& config);

/// Full JSON round trip for the wire protocol (includes scheduling
/// fields, unlike canonical_config_json).  Unknown keys are rejected, and
/// a count or category label that is negative or does not fit its field
/// throws ValidationError (domain "job") naming the field.
std::string job_config_to_json(const JobConfig& config);
JobConfig job_config_from_json(const std::string& json);
/// Same decoder over an already-parsed document node (how the protocol
/// dispatcher reads the "config" subtree of a submit request).
JobConfig job_config_from_value(const util::JsonValue& doc);

/// Client-visible snapshot of one job.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  Priority priority = Priority::kNormal;
  std::string model_digest;
  std::string config_digest;
  /// True when the report was served from the result cache (the job
  /// executed zero campaign measurements).
  bool from_cache = false;
  std::size_t measurements_recorded = 0;
  std::size_t measurements_target = 0;
  /// Campaign measurements this job actually executed on the service
  /// (0 for cache hits; equals measurements_recorded otherwise).
  std::size_t measurements_executed = 0;
  /// Times the job was evicted from its executor for a higher-priority
  /// tenant (each eviction flushed a durable checkpoint).
  std::size_t preemptions = 0;
  /// Executor legs run so far (1 + resumes).
  std::size_t legs = 0;
  /// Monotonic progress counter; bumps on every progress update and on
  /// every state change (the streaming verb's cursor).
  std::uint64_t progress_seq = 0;
  /// Failure / cancellation detail ("" otherwise).
  std::string error;
  /// Structured rejection cause (ValidationError relay, or domain
  /// "lint" for admission-gate failures).  Empty unless kRejected.
  std::string reject_domain;
  std::string reject_field;
  std::string reject_constraint;

  bool terminal() const { return is_terminal(state); }
};

}  // namespace sce::service
