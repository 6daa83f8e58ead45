// TVLA-style fixed-vs-random leakage assessment.
//
// The paper tests category-vs-category; the side-channel community's
// standard screen (Test Vector Leakage Assessment, Goodwill et al.) is
// stronger for detection: interleave classifications of one FIXED input
// with classifications of RANDOM inputs and t-test the two counter
// populations.  Any dependence of the counters on the input — not just a
// category-mean shift — separates the populations.  TVLA rejects at
// |t| > 4.5 (and is usually run twice on disjoint measurement halves;
// both halves must agree on the sign).
//
// The screen runs on the campaign's sharded slot executor as an
// interleaved two-category campaign (fixed pool, random pool): pair i
// (one fixed + one random classification) is the unit of work, shards
// own contiguous pair ranges, and both the random-example choice and the
// provider's measurement randomness are keyed by i, so the merged
// populations are identical at any shard or thread count for providers
// without address sensitivity.  The screen inherits the campaign's
// fault tolerance: transient provider failures are retried per slot,
// a lost instrument's pairs fail over to healthy ones, and an event the
// provider drops or never offers is left untested (leaks = false).
#pragma once

#include <array>
#include <chrono>
#include <vector>

#include "core/campaign.hpp"
#include "stats/t_test.hpp"
#include "util/cancel.hpp"

namespace sce::core {

struct FixedVsRandomConfig {
  /// The fixed input: this category's first test image.
  int fixed_category = 0;
  /// Classifications measured for each population.
  std::size_t samples_per_population = 200;
  /// TVLA decision threshold on |t|.
  double t_threshold = 4.5;
  /// Confirm on two disjoint halves (the standard TVLA protocol).
  bool two_phase = true;
  nn::KernelMode kernel_mode = nn::KernelMode::kDataDependent;
  std::uint64_t random_seed = 17;
  /// Pair-range partitions of the acquisition (see campaign sharding).
  std::size_t num_shards = 1;
  /// Worker threads; 0 = one per shard.
  std::size_t num_threads = 0;

  /// Cooperative cancel handle, polled between measurement attempts.
  /// Unlike the campaign, the screen has no partial-result channel — a
  /// t-test over a fragment of the two populations would invite
  /// misreading — so a tripped token propagates the matching taxonomy
  /// error (util-error Cancelled / DeadlineExceeded) out of
  /// fixed_vs_random().
  util::CancelToken cancel;
  /// Wall-clock budget for the screen (0 = none), armed on a child of
  /// `cancel`.
  std::chrono::milliseconds deadline{0};

  /// Throws InvalidArgument when the configuration is unusable.
  void validate() const;
};

struct FixedVsRandomEventResult {
  hpc::HpcEvent event = hpc::HpcEvent::kCacheMisses;
  stats::TTestResult full;    ///< t-test over all measurements
  stats::TTestResult first;   ///< first half
  stats::TTestResult second;  ///< second half
  bool leaks = false;         ///< per the configured protocol
};

struct FixedVsRandomResult {
  FixedVsRandomConfig config;
  std::array<FixedVsRandomEventResult, hpc::kNumEvents> per_event;

  bool any_leak() const {
    for (const auto& r : per_event)
      if (r.leaks) return true;
    return false;
  }
  const FixedVsRandomEventResult& of(hpc::HpcEvent event) const;
};

/// Text rendering of the verdict table.
std::string render_fixed_vs_random(const FixedVsRandomResult& result);

}  // namespace sce::core
