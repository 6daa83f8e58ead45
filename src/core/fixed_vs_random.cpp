#include "core/fixed_vs_random.hpp"

#include <cmath>
#include <sstream>

#include "core/acquisition.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace sce::core {

void FixedVsRandomConfig::validate() const {
  if (samples_per_population < 4)
    throw ValidationError("fixed_vs_random", "samples_per_population",
                          "must be >= 4");
  if (t_threshold <= 0.0)
    throw ValidationError("fixed_vs_random", "t_threshold", "must be > 0");
  if (num_shards == 0)
    throw ValidationError("fixed_vs_random", "num_shards", "must be >= 1");
  if (deadline < std::chrono::milliseconds::zero())
    throw ValidationError("fixed_vs_random", "deadline", "must be >= 0");
}

const FixedVsRandomEventResult& FixedVsRandomResult::of(
    hpc::HpcEvent event) const {
  return per_event[static_cast<std::size_t>(event)];
}

namespace {

bool tvla_verdict(const FixedVsRandomConfig& cfg,
                  const FixedVsRandomEventResult& r) {
  if (!cfg.two_phase)
    return std::fabs(r.full.t) > cfg.t_threshold;
  // Both halves must exceed the threshold with the same sign.
  return std::fabs(r.first.t) > cfg.t_threshold &&
         std::fabs(r.second.t) > cfg.t_threshold &&
         std::signbit(r.first.t) == std::signbit(r.second.t);
}

stats::TTestResult half_test(const std::vector<double>& fixed,
                             const std::vector<double>& random,
                             std::size_t begin, std::size_t end) {
  const std::span<const double> f(fixed.data() + begin, end - begin);
  const std::span<const double> r(random.data() + begin, end - begin);
  return stats::welch_t_test(f, r);
}

}  // namespace

// The screen is an interleaved two-pool campaign on the shared executor:
// pool 0 holds the fixed image (reused for every slot), pool 1 the
// random examples.  Pair i is then measured as slots 2i (fixed) and
// 2i+1 (random) — the keys the serial interleaved order assigns — and
// random[i] is a pure function of (random_seed, i), so partitioning the
// pair range never reshuffles either population.
FixedVsRandomResult Campaign::fixed_vs_random(
    const FixedVsRandomConfig& config) const {
  config.validate();
  if (config.fixed_category < 0 ||
      static_cast<std::size_t>(config.fixed_category) >=
          dataset_.num_classes())
    throw InvalidArgument("fixed_vs_random: fixed_category out of range");
  const auto fixed_pool = dataset_.examples_of(config.fixed_category);
  if (fixed_pool.empty())
    throw InvalidArgument("fixed_vs_random: no image of fixed category");
  if (dataset_.empty())
    throw InvalidArgument("fixed_vs_random: empty dataset");

  const std::size_t n = config.samples_per_population;
  std::vector<const data::Example*> random_pool;
  random_pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng pick(util::mix64(config.random_seed, i));
    random_pool.push_back(
        &dataset_[static_cast<std::size_t>(pick.below(dataset_.size()))]);
  }
  const acquisition::InputPools pools = {{fixed_pool.front()},
                                         std::move(random_pool)};

  CampaignConfig run;
  run.categories = {config.fixed_category, config.fixed_category};
  run.samples_per_category = n;
  run.kernel_mode = config.kernel_mode;
  run.num_shards = config.num_shards;
  run.num_threads = config.num_threads;
  // The screen has no partial-result channel, so a rig that exhausts
  // three slots in a row hands its pairs to a healthy rig instead of
  // grinding on toward max_failed_measurements.
  run.instrument_lost_after = 3;
  run.cancel = config.cancel;
  run.deadline = config.deadline;

  CampaignResult shell;
  shell.categories = run.categories;
  shell.category_names = {"fixed", "random"};
  for (auto& per_event : shell.samples) per_event.assign(pools.size(), {});
  const CampaignResult acquired =
      run_internal(run, pools, std::move(shell));

  // All-or-nothing: a t-test over a fragment of the populations would
  // invite misreading, so a supervision stop surfaces as its taxonomy
  // error instead of a Partial result.
  if (acquired.status() == RunStatus::kPartial) {
    if (acquired.diagnostics.stop_reason == StopReason::kDeadline)
      throw DeadlineExceeded("fixed_vs_random: deadline expired");
    throw Cancelled("fixed_vs_random: cancelled");
  }

  FixedVsRandomResult result;
  result.config = config;
  for (hpc::HpcEvent e : hpc::all_events()) {
    FixedVsRandomEventResult& r =
        result.per_event[static_cast<std::size_t>(e)];
    r.event = e;
    if (!acquired.has_event(e)) continue;  // dropped or unsupported
    const std::vector<double>& fixed = acquired.of(e, 0);
    const std::vector<double>& random = acquired.of(e, 1);
    r.full = stats::welch_t_test(fixed, random);
    r.first = half_test(fixed, random, 0, n / 2);
    r.second = half_test(fixed, random, n / 2, n);
    r.leaks = tvla_verdict(config, r);
  }
  return result;
}

std::string render_fixed_vs_random(const FixedVsRandomResult& result) {
  std::ostringstream os;
  os << "TVLA fixed-vs-random assessment (|t| > "
     << util::fixed(result.config.t_threshold, 1);
  if (result.config.two_phase) os << ", two-phase confirmation";
  os << ")\n";
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"event", "t(full)", "t(1st half)", "t(2nd half)",
                  "verdict"});
  for (const auto& r : result.per_event) {
    rows.push_back({hpc::to_string(r.event), util::fixed(r.full.t, 2),
                    util::fixed(r.first.t, 2), util::fixed(r.second.t, 2),
                    r.leaks ? "LEAK" : "ok"});
  }
  os << util::render_table(rows);
  os << (result.any_leak()
             ? "verdict: input-dependent leakage confirmed\n"
             : "verdict: no leakage at the TVLA threshold\n");
  return os.str();
}

}  // namespace sce::core
