// Acquisition plumbing shared by the live executor (campaign.cpp, which
// also runs the TVLA screen of fixed_vs_random.cpp) and the record/replay
// sweep (sweep.cpp).  Internal to core; defined in campaign.cpp.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "data/dataset.hpp"
#include "util/cancel.hpp"

namespace sce::core::acquisition {

/// pools[c] = the examples measurement slots of input class c cycle
/// through (sample s classifies pools[c][s % pools[c].size()]).
using InputPools = std::vector<std::vector<const data::Example*>>;

struct CategoryPools {
  InputPools pools;
  std::vector<std::string> names;
};

/// One pool per category label, validated against the dataset: label in
/// range, at least one example, and — unless `allow_image_reuse` — at
/// least `per_category` of them.  Errors name `domain` ("campaign",
/// "sweep").  Throws InvalidArgument.
CategoryPools category_pools(const data::Dataset& dataset,
                             const std::vector<int>& categories,
                             std::size_t per_category, bool allow_image_reuse,
                             const std::string& domain);

/// The token a run executes under: a child of the caller's token (so a
/// stop ends this run without consuming the caller's token for later
/// runs), with the run's deadline (0 = none) armed on the child.
util::CancelToken run_token(const util::CancelToken& parent,
                            std::chrono::milliseconds deadline);

/// Why a tripped run token stopped its run.
StopReason stop_reason_of(const util::CancelToken& token);

}  // namespace sce::core::acquisition
