// perf_breakdown: one workload of the time-to-verdict benchmark, in its
// own process.
//
//   perf_breakdown --prime --cache DIR
//   perf_breakdown --workload NAME --cache DIR --work DIR [--seed S]
//                  [--seconds T] [--traced] [--smoke]
//                  [--expected DIR] [--out FILE] [--trace-out FILE]
//
// --prime trains the reference models into the bench-private model cache
// unless they are there already; a measured run whose cache is cold fails
// instead of training.  With --seconds T > 0, a run takes timed, untraced
// verdicts for about T seconds (at least one), each on freshly set-up
// state, and reports every end-to-end metric as one robust value over
// the whole run (README.md, "End-to-end metrics").  --traced then adds
// one verdict with spans around every public call, plus the per-slot
// decomposition pass that yields the per-layer metrics.  The outputs are
// checked last.  The result is one JSON document (README.md, "Result
// files"); bench/perf/run.py aggregates runs and workloads.  Exit status:
// 0 = every check passed, 1 = a check failed, 2 = bad usage or a run that
// could not complete.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "core/campaign.hpp"
#include "core/evaluator.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "nn/serialize.hpp"
#include "nn/zoo.hpp"
#include "perf.hpp"
#include "service/server.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace sce;
using bench::perf::Metric;
using bench::perf::Tracer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Options and budgets ------------------------------------------------

struct Options {
  std::string workload;
  bool prime = false;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  std::string cache_dir;
  std::string work_dir;
  std::string expected_dir;
  std::string out;
  std::string trace_out;
};

/// Workload sizes.  `full` is the benchmark; `smoke` exercises every code
/// path and check in a few seconds (the bench_perf_smoke test).  The
/// sweep and service verdicts last a few seconds, so a run repeats them
/// several times; a campaign verdict is timed chunk by chunk.
struct Budget {
  const char* name;
  std::size_t mnist_samples;
  std::size_t cifar_samples;
  std::size_t sweep_samples;
  std::size_t bulk_jobs;
  std::size_t bulk_samples;
  std::size_t interactive_jobs;
  std::size_t interactive_samples;
  /// Every repeat_every-th interactive job resubmits an earlier config.
  std::size_t repeat_every;
  std::size_t decompose_per_category;
};
constexpr Budget kFullBudget{"full", 100, 50, 2, 1, 12, 10, 4, 5, 25};
constexpr Budget kSmokeBudget{"smoke", 6, 8, 2, 1, 4, 5, 2, 5, 2};

/// Setups timed before each verdict, which runs on the last of them:
/// setup_s needs samples spread over the run to find a quiet moment.
constexpr std::size_t kSetupsPerVerdict = 4;
constexpr std::size_t kMaxReps = 64;
/// Time left below which no verdict is started to be cut short: it would
/// add only a few chunks.
constexpr double kMinCutVerdictS = 1.0;
/// Campaign measurements per progress chunk: one per category, since the
/// campaign interleaves categories, so every chunk does the same mix.
constexpr std::size_t kChunk = 4;
constexpr std::size_t kLintRepeats = 3;
const std::vector<int> kCategories = {0, 1, 2, 3};

[[noreturn]] void usage(const std::string& why) {
  throw InvalidArgument("perf_breakdown: " + why +
                        " (see bench/perf/README.md for usage)");
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    auto count = [&](const std::string& text) -> std::uint64_t {
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos ||
          text.size() > 18)
        usage(arg + " needs a whole number below 10^18");
      return std::stoull(text);
    };
    auto seconds = [&](const std::string& text) {
      std::size_t used = 0;
      const double v = std::stod(text, &used);
      if (used != text.size() || !(v >= 0.0 && v <= 3600.0))
        usage(arg + " needs a number of seconds in [0, 3600]");
      return v;
    };
    if (arg == "--workload")
      o.workload = next();
    else if (arg == "--prime")
      o.prime = true;
    else if (arg == "--seed")
      o.seed = count(next());
    else if (arg == "--seconds")
      o.seconds = seconds(next());
    else if (arg == "--traced")
      o.traced = true;
    else if (arg == "--smoke")
      o.smoke = true;
    else if (arg == "--cache")
      o.cache_dir = next();
    else if (arg == "--work")
      o.work_dir = next();
    else if (arg == "--expected")
      o.expected_dir = next();
    else if (arg == "--out")
      o.out = next();
    else if (arg == "--trace-out")
      o.trace_out = next();
    else
      usage("unknown argument " + arg);
  }
  if (o.cache_dir.empty()) usage("--cache is required");
  if (!o.prime && o.workload.empty()) usage("--workload or --prime required");
  if (!o.prime && o.work_dir.empty()) usage("--work is required");
  return o;
}

// --- Inputs derived from the seed ---------------------------------------

// Stream ids for util::mix64(seed, stream): one independent value per use.
constexpr std::uint64_t kPermuteStream = 0x9e37;
constexpr std::uint64_t kNoiseStream = 0x7f4a;

/// The model's own test set with each category's images in a seeded
/// order; the campaign reads them from the front, reusing as needed.
data::Dataset permuted(const data::Dataset& test_set, std::uint64_t seed) {
  data::Dataset out = test_set;
  util::Rng rng(util::mix64(seed, kPermuteStream));
  out.shuffle(rng);
  return out;
}

hpc::SimulatedPmuConfig pmu_config(
    const std::array<hpc::EnvironmentSpec, hpc::kNumEvents>& environment,
    std::uint64_t seed) {
  hpc::SimulatedPmuConfig pmu;
  pmu.environment = environment;
  pmu.noise_seed = util::mix64(seed, kNoiseStream);
  return pmu;
}

/// The weights file nn::get_or_train_* keeps in its cache directory.
std::filesystem::path cached_weights(const std::string& cache_dir,
                                     const std::string& which) {
  return std::filesystem::path(cache_dir) / (which + "_cnn_v1.scew");
}

nn::TrainedModel load_trained(const std::string& which,
                              const std::string& cache_dir) {
  if (!std::filesystem::exists(cached_weights(cache_dir, which)))
    throw Error("model cache " + cache_dir + " is cold (no " +
                cached_weights(cache_dir, which).string() +
                "); run perf_breakdown --prime first");
  nn::ZooConfig zoo;
  zoo.cache_dir = cache_dir;
  return which == "mnist" ? nn::get_or_train_mnist(zoo)
                          : nn::get_or_train_cifar(zoo);
}

std::vector<std::size_t> input_shape(const data::Dataset& dataset) {
  return nn::image_to_tensor(dataset[0].image).shape();
}

/// Digest over the trace-pure cells (instructions, branches) of every
/// category, in order.  Cache and branch-miss counts depend on buffer
/// placement and branch-site addresses, so they stay out.
void digest_cells(const core::CampaignResult& r, std::string& bytes) {
  for (hpc::HpcEvent e :
       {hpc::HpcEvent::kInstructions, hpc::HpcEvent::kBranches})
    for (std::size_t c = 0; c < r.category_count(); ++c) {
      for (double v : r.of(e, c)) bytes += std::to_string(v) + ",";
      bytes += ";";
    }
}

// --- Workloads ----------------------------------------------------------

struct RepResult {
  /// False when a deadline cut the verdict short: then only chunk_s,
  /// attempted and failed count.
  bool complete = true;
  double verdict_s = 0.0;
  std::size_t measurements = 0;
  std::size_t verdicts = 1;
  /// Service: submit-to-report latency of every executed interactive job.
  std::vector<double> job_latency_s;
  /// Campaigns: wall time of every progress chunk of kChunk measurements
  /// after the first, and the verdict's time outside them (plan set-up,
  /// warmups, the first chunk, evaluate, render).
  std::vector<double> chunk_s;
  double outside_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Load the weights, synthesise the dataset, build the Campaign or
  /// server: everything a verdict needs before its first input.
  virtual void setup() = 0;
  /// One verdict on the state setup() built.  A workload that can stop
  /// mid-verdict does so after `deadline_s` seconds (0 = no deadline).
  virtual RepResult run(Tracer* tracer, double deadline_s) = 0;
  /// Whether run() honours its deadline: the run then fills its time
  /// instead of stopping while half a verdict still fits.
  virtual bool takes_deadline() const { return false; }
  /// Correctness checks over the last complete run().
  virtual void check(std::vector<Check>& checks) const = 0;
  /// Per-layer metrics only this workload's traced run can give.
  virtual void layer_metrics(const Tracer& tracer, double measure_mean_ms,
                             std::vector<Metric>& out) const = 0;
  virtual bench::perf::DecompositionInput decomposition() const = 0;
  /// Digest of the last run's trace-pure samples ("" when none).
  virtual std::string digest() const = 0;
};

void add_layer(std::vector<Metric>& out, std::string name, std::string unit,
               bool exact, double value, std::string better = "lower") {
  out.push_back(
      {std::move(name), std::move(unit), std::move(better), exact, {value}});
}

double last_ms(const Tracer& tracer, const char* name) {
  const std::vector<double> d = tracer.durations_ms(name);
  return d.empty() ? 0.0 : d.back();
}

/// mnist_dd, cifar_dd, mnist_cf: one Campaign::run, then evaluate and the
/// three renderers, as a Table-1/2 verdict.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const Options& o, std::string model, nn::KernelMode mode,
                   std::size_t samples,
                   std::array<hpc::EnvironmentSpec, hpc::kNumEvents> env)
      : o_(o), model_(std::move(model)), mode_(mode), samples_(samples),
        env_(env) {}

  void setup() override {
    state_.reset();
    auto s = std::make_unique<State>();
    s->trained = load_trained(model_, o_.cache_dir);
    s->dataset = permuted(s->trained.test_set, o_.seed);
    s->instruments =
        std::make_unique<hpc::SimulatedPmuFactory>(pmu_config(env_, o_.seed));
    core::CampaignConfig cfg;
    cfg.categories = kCategories;
    cfg.samples_per_category = samples_;
    cfg.kernel_mode = mode_;
    cfg.num_shards = 1;
    cfg.num_threads = 1;
    s->campaign = std::make_unique<core::Campaign>(s->trained.model,
                                                   s->dataset, *s->instruments);
    s->campaign->with_config(cfg);
    s->campaign->on_progress(
        [marks = &s->marks](const core::CampaignProgress& p) {
          marks->emplace_back(Clock::now(), p.measurements_recorded);
        },
        kChunk);
    state_ = std::move(s);
  }

  /// A verdict cut short by its deadline keeps its chunk times only; the
  /// checks and the traced pass's metrics read the last complete one.
  RepResult run(Tracer* tracer, double deadline_s) override {
    State& s = *state_;
    core::CampaignConfig cfg = s.campaign->config();
    cfg.deadline = std::chrono::milliseconds(
        static_cast<std::int64_t>(deadline_s * 1000.0));
    s.campaign->with_config(cfg);
    s.marks.clear();
    RepResult r;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "core.campaign_run");
      s.result = s.campaign->run();
    }
    r.complete = s.result.status() == core::RunStatus::kComplete;
    if (r.complete) {
      {
        Tracer::Scope span(tracer, "core.evaluate");
        s.assessment = core::evaluate(s.result);
      }
      Tracer::Scope span(tracer, "core.render");
      s.rendered = core::render_paper_table(
          s.assessment,
          {hpc::HpcEvent::kCacheMisses, hpc::HpcEvent::kBranches});
      s.rendered += core::render_report(s.assessment);
      s.rendered += core::render_json(s.assessment);
    }
    r.verdict_s = seconds_since(t0);
    // The interval before the first progress mark also holds the plan
    // set-up and the warmups; the final mark repeats the last count.
    r.outside_s = r.verdict_s;
    for (std::size_t i = 1; i < s.marks.size(); ++i) {
      if (s.marks[i].second != s.marks[i - 1].second + kChunk) continue;
      const double chunk = std::chrono::duration<double>(
                               s.marks[i].first - s.marks[i - 1].first)
                               .count();
      r.chunk_s.push_back(chunk);
      r.outside_s -= chunk;
    }
    const core::CampaignDiagnostics& d = s.result.diagnostics;
    r.measurements = d.measurements_recorded;
    r.attempted = d.measurements_attempted;
    r.failed = d.failed_measurements;
    if (r.complete) done_ = std::move(state_);
    return r;
  }

  bool takes_deadline() const override { return true; }

  void check(std::vector<Check>& checks) const override {
    const State& s = *done_;
    const core::CampaignDiagnostics& d = s.result.diagnostics;
    checks.push_back({"campaign.complete",
                      s.result.status() == core::RunStatus::kComplete &&
                          d.failed_measurements == 0 &&
                          d.measurements_recorded ==
                              kCategories.size() * samples_ &&
                          !s.rendered.empty(),
                      d.summary()});
    if (mode_ == nn::KernelMode::kDataDependent) {
      const std::size_t pairs =
          s.assessment.analysis_of(hpc::HpcEvent::kCacheMisses)
              .significant_pairs(s.assessment.config.alpha);
      checks.push_back({"verdict.alarm",
                        s.assessment.alarm_raised() && pairs >= 4,
                        "cache-misses distinguishes " + std::to_string(pairs) +
                            "/6 pairs"});
      return;
    }
    // Constant flow: every category executes the same instruction stream.
    nn::InferencePlan plan(s.trained.model, input_shape(s.dataset));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
    for (int label : kCategories) {
      uarch::CountingSink counting;
      const data::Example& first = *s.dataset.examples_of(label)[0];
      (void)plan.run(nn::image_to_tensor(first.image), counting, mode_);
      totals.emplace_back(counting.instructions(), counting.branches());
    }
    const bool same =
        std::all_of(totals.begin(), totals.end(),
                    [&](const auto& t) { return t == totals[0]; });
    checks.push_back({"constant_flow.invariant", same,
                      std::to_string(totals[0].first) + " instructions, " +
                          std::to_string(totals[0].second) +
                          " branches in category 0"});
  }

  void layer_metrics(const Tracer& tracer, double measure_mean_ms,
                     std::vector<Metric>& out) const override {
    const core::CampaignDiagnostics& d = done_->result.diagnostics;
    const double warmups =
        static_cast<double>(done_->campaign->config().warmup_measurements);
    const double attempted = static_cast<double>(d.measurements_attempted);
    const double campaign_s = last_ms(tracer, "core.campaign_run") / 1000.0;
    add_layer(out, "core.campaign_s", "s", false, campaign_s);
    add_layer(out, "core.campaign_self_s", "s", false,
              campaign_s - (attempted + warmups) * measure_mean_ms / 1000.0);
    add_layer(out, "core.evaluate_ms", "ms", false,
              last_ms(tracer, "core.evaluate"));
    add_layer(out, "core.render_ms", "ms", false,
              last_ms(tracer, "core.render"));
    add_layer(out, "core.attempted_per_recorded", "ratio", true,
              attempted / static_cast<double>(d.measurements_recorded));
    add_layer(out, "core.warmup_share", "fraction", true,
              warmups / (attempted + warmups));
  }

  bench::perf::DecompositionInput decomposition() const override {
    bench::perf::DecompositionInput in;
    in.model = &done_->trained.model;
    in.dataset = &done_->dataset;
    in.categories = kCategories;
    in.mode = mode_;
    in.pmu = pmu_config(env_, o_.seed);
    return in;
  }

  std::string digest() const override {
    std::string bytes;
    digest_cells(done_->result, bytes);
    return util::content_digest_hex(bytes);
  }

 private:
  // Member order matters: the Campaign borrows the model, dataset and
  // factory, so it is declared (and destroyed) after them.
  struct State {
    nn::TrainedModel trained;
    data::Dataset dataset;
    std::unique_ptr<hpc::SimulatedPmuFactory> instruments;
    std::unique_ptr<core::Campaign> campaign;
    /// (time, measurements recorded) at every progress callback.
    std::vector<std::pair<Clock::time_point, std::size_t>> marks;
    core::CampaignResult result;
    core::LeakageAssessment assessment;
    std::string rendered;
  };

  const Options& o_;
  std::string model_;
  nn::KernelMode mode_;
  std::size_t samples_;
  std::array<hpc::EnvironmentSpec, hpc::kNumEvents> env_;
  std::unique_ptr<State> state_;  ///< set up, not yet run to completion
  std::unique_ptr<State> done_;   ///< the last complete verdict
};

/// The 128-point grid of bench/ablation_uarch_sweep: L1 geometry (2) x
/// replacement (4) x prefetch (2) x predictor (4) x mispredict penalty
/// (2), deduplicated by the engine into 16 memory and 4 branch classes.
std::vector<core::SweepPoint> ablation_grid(std::uint64_t seed) {
  struct L1 {
    const char* tag;
    std::size_t size;
    std::size_t ways;
  };
  const L1 l1s[] = {{"32k8w", 32 * 1024, 8}, {"8k2w", 8 * 1024, 2}};
  const std::pair<const char*, uarch::ReplacementPolicy> policies[] = {
      {"lru", uarch::ReplacementPolicy::kLru},
      {"plru", uarch::ReplacementPolicy::kTreePlru},
      {"fifo", uarch::ReplacementPolicy::kFifo},
      {"random", uarch::ReplacementPolicy::kRandom}};
  const std::pair<const char*, uarch::PredictorKind> predictors[] = {
      {"static", uarch::PredictorKind::kStaticTaken},
      {"bimodal", uarch::PredictorKind::kBimodal},
      {"gshare", uarch::PredictorKind::kGShare},
      {"local", uarch::PredictorKind::kTwoLevelLocal}};
  std::vector<core::SweepPoint> grid;
  for (const L1& l1 : l1s)
    for (const auto& policy : policies)
      for (bool prefetch : {false, true})
        for (const auto& predictor : predictors)
          for (std::uint32_t penalty : {15u, 30u}) {
            hpc::SimulatedPmuConfig pmu =
                pmu_config(hpc::SimulatedPmuConfig::no_environment(), seed);
            pmu.hierarchy.l1d.size_bytes = l1.size;
            pmu.hierarchy.l1d.associativity = l1.ways;
            pmu.hierarchy.l1d.policy = policy.second;
            pmu.hierarchy.l2.policy = policy.second;
            pmu.hierarchy.llc.policy = policy.second;
            pmu.hierarchy.enable_next_line_prefetch = prefetch;
            pmu.predictor = predictor.second;
            pmu.core.branch_mispredict_cycles = penalty;
            grid.push_back({std::string(l1.tag) + "/" + policy.first +
                                (prefetch ? "/pf-next/" : "/pf-off/") +
                                predictor.first + "/mp" +
                                std::to_string(penalty),
                            pmu});
          }
  return grid;
}

/// sweep_mnist: Campaign::sweep over the ablation grid, then one
/// evaluation per grid point.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const Options& o, std::size_t samples)
      : o_(o), samples_(samples) {}

  void setup() override {
    state_.reset();
    auto s = std::make_unique<State>();
    s->trained = load_trained("mnist", o_.cache_dir);
    s->dataset = permuted(s->trained.test_set, o_.seed);
    s->campaign = std::make_unique<core::Campaign>(
        s->trained.model, s->dataset, s->unused_instruments);
    s->config.categories = kCategories;
    s->config.samples_per_category = samples_;
    s->config.num_threads = 1;
    s->config.verify_live = false;
    s->config.grid = ablation_grid(o_.seed);
    state_ = std::move(s);
  }

  RepResult run(Tracer* tracer, double) override {
    State& s = *state_;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "core.sweep");
      s.sweep = s.campaign->sweep(s.config);
    }
    core::EvaluatorConfig eval;
    eval.anova_screen = false;
    eval.holm_correction = false;
    s.alarms = 0;
    for (std::size_t g = 0; g < s.sweep.points.size(); ++g) {
      Tracer::Scope span(tracer, "core.evaluate",
                         static_cast<std::int64_t>(g));
      s.alarms +=
          core::evaluate(s.sweep.points[g].result, eval).alarm_raised();
    }
    RepResult r;
    r.verdict_s = seconds_since(t0);
    const std::size_t points = s.config.grid.size();
    r.measurements = points * s.sweep.slots_completed;
    r.attempted = points * kCategories.size() * samples_;
    r.failed = r.attempted - r.measurements;
    return r;
  }

  void check(std::vector<Check>& checks) const override {
    const State& s = *state_;
    const core::SweepStats& st = s.sweep.stats;
    bool full = s.sweep.status() == core::RunStatus::kComplete &&
                s.sweep.points.size() == s.config.grid.size();
    for (const auto& p : s.sweep.points)
      for (std::size_t c = 0; c < kCategories.size(); ++c)
        full = full &&
               p.result.of(hpc::HpcEvent::kInstructions, c).size() == samples_;
    checks.push_back({"sweep.complete", full,
                      std::to_string(s.sweep.slots_completed) + " slots x " +
                          std::to_string(s.sweep.points.size()) +
                          " points, " + std::to_string(s.alarms) +
                          " raise an alarm"});
    checks.push_back({"sweep.classes",
                      st.memory_classes == 16 && st.branch_classes == 4,
                      std::to_string(st.memory_classes) + " memory + " +
                          std::to_string(st.branch_classes) +
                          " branch replay classes"});
  }

  void layer_metrics(const Tracer& tracer, double,
                     std::vector<Metric>& out) const override {
    const core::SweepStats& st = state_->sweep.stats;
    add_layer(out, "core.sweep_record_s", "s", false, st.record_seconds);
    add_layer(out, "core.sweep_replay_s", "s", false, st.replay_seconds);
    add_layer(out, "core.sweep_replay_hit_ratio", "fraction", true,
              static_cast<double>(st.replay_cache_hits) /
                  static_cast<double>(st.replays + st.replay_cache_hits),
              "higher");
    double evaluate_ms = 0.0;
    for (double ms : tracer.durations_ms("core.evaluate")) evaluate_ms += ms;
    add_layer(out, "core.evaluate_ms", "ms", false, evaluate_ms);
  }

  bench::perf::DecompositionInput decomposition() const override {
    bench::perf::DecompositionInput in;
    in.model = &state_->trained.model;
    in.dataset = &state_->dataset;
    in.categories = kCategories;
    in.pmu = pmu_config(hpc::SimulatedPmuConfig::no_environment(), o_.seed);
    return in;
  }

  std::string digest() const override {
    std::string bytes;
    for (const auto& p : state_->sweep.points) digest_cells(p.result, bytes);
    return util::content_digest_hex(bytes);
  }

 private:
  struct State {
    nn::TrainedModel trained;
    data::Dataset dataset;
    hpc::SimulatedPmuFactory unused_instruments;  // the grid brings its own
    std::unique_ptr<core::Campaign> campaign;
    core::SweepConfig config;
    core::SweepResult sweep;
    std::size_t alarms = 0;
  };

  const Options& o_;
  std::size_t samples_;
  std::unique_ptr<State> state_;
};

/// service_tenants: an in-process EvaluationServer with one executor and
/// two closed-loop tenants.  `bulk` submits low-priority MNIST jobs of
/// 4 categories; `interactive` submits high-priority 2-category jobs one
/// at a time, each followed by a report fetch, and every repeat_every-th
/// of them resubmits an earlier config (a result-cache hit).
class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(const Options& o, const Budget& b) : o_(o), b_(b) {}

  void setup() override {
    state_.reset();
    auto s = std::make_unique<State>();
    s->trained = load_trained("mnist", o_.cache_dir);
    s->dataset = permuted(s->trained.test_set, o_.seed);
    s->model_bytes = nn::serialized_bytes(s->trained.model);
    service::ServerConfig cfg;
    cfg.executors = 1;
    cfg.work_dir = (std::filesystem::path(o_.work_dir) / "service").string();
    std::filesystem::remove_all(cfg.work_dir);
    const hpc::SimulatedPmuConfig pmu =
        pmu_config(hpc::SimulatedPmuConfig::default_environment(), o_.seed);
    cfg.instruments = [pmu] {
      return std::make_unique<hpc::SimulatedPmuFactory>(pmu);
    };
    s->server = std::make_unique<service::EvaluationServer>(std::move(cfg));
    state_ = std::move(s);
  }

  RepResult run(Tracer* tracer, double) override {
    State& s = *state_;
    s.jobs.clear();
    const std::size_t total = b_.bulk_jobs + b_.interactive_jobs;
    // Tenants hold their models before they start submitting.
    std::vector<nn::Sequential> models;
    for (std::size_t i = 0; i < total; ++i) {
      models.push_back(nn::build_mnist_cnn());
      std::istringstream in(s.model_bytes);
      nn::load_model(models.back(), in);
    }
    s.jobs.resize(total);

    const auto t0 = Clock::now();
    auto tenant = [&](std::size_t first, std::size_t count) {
      for (std::size_t i = first; i < first + count; ++i) {
        Job& job = s.jobs[i];
        job.config = job_config(i);
        const auto submitted = Clock::now();
        std::uint64_t id = 0;
        {
          Tracer::Scope span(tracer, "service.submit",
                             static_cast<std::int64_t>(i));
          id = s.server->submit(std::move(models[i]), job.config);
        }
        job.submit_ms = seconds_since(submitted) * 1000.0;
        service::JobStatus status;
        {
          Tracer::Scope span(tracer, "service.wait",
                             static_cast<std::int64_t>(i));
          status = s.server->wait(id);
        }
        job.state = status.state;
        job.from_cache = status.from_cache;
        if (status.state == service::JobState::kCompleted) {
          const auto fetched = Clock::now();
          Tracer::Scope span(tracer, "service.report",
                             static_cast<std::int64_t>(i));
          job.report = s.server->report(id);
          job.report_ms = seconds_since(fetched) * 1000.0;
        }
        job.latency_s = seconds_since(submitted);
      }
    };
    run_tenants([&] { tenant(0, b_.bulk_jobs); },
                [&] { tenant(b_.bulk_jobs, b_.interactive_jobs); });

    RepResult r;
    r.verdict_s = seconds_since(t0);
    s.stats = s.server->stats();
    s.cache = s.server->cache_stats();
    r.measurements = s.stats.measurements_executed;
    r.verdicts = s.stats.completed;
    for (std::size_t i = b_.bulk_jobs; i < total; ++i)
      if (!s.jobs[i].from_cache) r.job_latency_s.push_back(s.jobs[i].latency_s);
    r.attempted = s.stats.submissions;
    r.failed = s.stats.failed + s.stats.cancelled + s.stats.rejected;
    return r;
  }

  void check(std::vector<Check>& checks) const override {
    const State& s = *state_;
    std::size_t completed = 0, repeats = 0, identical = 0, expected = 0;
    for (std::size_t i = 0; i < s.jobs.size(); ++i) {
      const Job& job = s.jobs[i];
      completed += job.state == service::JobState::kCompleted;
      const std::optional<std::size_t> original = repeat_of(i);
      if (original) {
        ++repeats;
        identical += job.from_cache && job.report == s.jobs[*original].report;
      } else {
        expected += job.config.categories.size() *
                    job.config.samples_per_category;
      }
    }
    checks.push_back({"service.all_completed",
                      completed == s.jobs.size() &&
                          s.stats.measurements_executed == expected,
                      std::to_string(completed) + "/" +
                          std::to_string(s.jobs.size()) + " jobs, " +
                          std::to_string(s.stats.measurements_executed) +
                          " measurements executed"});
    checks.push_back({"service.cache_byte_identical", identical == repeats,
                      std::to_string(identical) + "/" +
                          std::to_string(repeats) +
                          " repeats served from cache byte-identically"});
  }

  void layer_metrics(const Tracer&, double,
                     std::vector<Metric>& out) const override {
    const State& s = *state_;
    std::vector<double> admit, hit, report;
    for (std::size_t i = b_.bulk_jobs; i < s.jobs.size(); ++i) {
      const Job& job = s.jobs[i];
      if (job.from_cache) {
        hit.push_back(job.latency_s * 1000.0);
      } else {
        admit.push_back(job.submit_ms);
        report.push_back(job.report_ms);
      }
    }
    add_layer(out, "service.admit_ms", "ms", false,
              bench::perf::percentile(admit, 0.5));
    add_layer(out, "service.cache_hit_ms", "ms", false,
              bench::perf::percentile(hit, 0.5));
    add_layer(out, "service.report_ms", "ms", false,
              bench::perf::percentile(report, 0.5));
    add_layer(out, "service.preemptions", "count", false,
              static_cast<double>(s.stats.preemptions));
    add_layer(out, "service.cache_hit_ratio", "fraction", true,
              static_cast<double>(s.cache.hits) /
                  static_cast<double>(s.cache.hits + s.cache.misses),
              "higher");
  }

  bench::perf::DecompositionInput decomposition() const override {
    bench::perf::DecompositionInput in;
    in.model = &state_->trained.model;
    in.dataset = &state_->dataset;
    in.categories = kCategories;
    in.pmu = pmu_config(hpc::SimulatedPmuConfig::default_environment(),
                        o_.seed);
    return in;
  }

  std::string digest() const override { return ""; }

 private:
  struct Job {
    service::JobConfig config;
    service::JobState state = service::JobState::kQueued;
    bool from_cache = false;
    double submit_ms = 0.0;
    double report_ms = 0.0;
    double latency_s = 0.0;
    std::string report;
  };
  struct State {
    nn::TrainedModel trained;
    data::Dataset dataset;  // the decomposition pass's inputs
    std::string model_bytes;
    std::unique_ptr<service::EvaluationServer> server;
    std::vector<Job> jobs;
    service::ServerStats stats;
    service::CacheStats cache;
  };

  /// Interactive job `i` that resubmits an earlier job's config, and which.
  std::optional<std::size_t> repeat_of(std::size_t i) const {
    if (i < b_.bulk_jobs) return std::nullopt;
    const std::size_t k = i - b_.bulk_jobs;
    if (k % b_.repeat_every != b_.repeat_every - 1) return std::nullopt;
    return b_.bulk_jobs + (k / b_.repeat_every) * b_.repeat_every;
  }

  service::JobConfig job_config(std::size_t i) const {
    const std::size_t origin = repeat_of(i).value_or(i);
    service::JobConfig c;
    c.dataset.kind = "mnist-like";
    c.dataset.seed = o_.seed * 1000 + origin;
    c.num_shards = 1;
    c.num_threads = 1;
    if (i < b_.bulk_jobs) {
      c.categories = kCategories;
      c.samples_per_category = b_.bulk_samples;
      c.priority = service::Priority::kLow;
    } else {
      c.categories = {0, 1};
      c.samples_per_category = b_.interactive_samples;
      c.priority = service::Priority::kHigh;
    }
    return c;
  }

  /// Run both tenants to completion on their own threads; rethrows the
  /// first failure after both have been joined.
  static void run_tenants(const std::function<void()>& bulk,
                          const std::function<void()>& interactive) {
    std::exception_ptr errors[2];
    auto guarded = [](const std::function<void()>& body,
                      std::exception_ptr& e) {
      try {
        body();
      } catch (...) {
        e = std::current_exception();
      }
    };
    std::thread a(guarded, std::cref(bulk), std::ref(errors[0]));
    std::thread b(guarded, std::cref(interactive), std::ref(errors[1]));
    a.join();
    b.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  const Options& o_;
  const Budget& b_;
  std::unique_ptr<State> state_;
};

std::unique_ptr<Workload> make_workload(const Options& o, const Budget& b) {
  using Env = hpc::SimulatedPmuConfig;
  if (o.workload == "mnist_dd")
    return std::make_unique<CampaignWorkload>(
        o, "mnist", nn::KernelMode::kDataDependent, b.mnist_samples,
        Env::default_environment());
  if (o.workload == "cifar_dd")
    return std::make_unique<CampaignWorkload>(
        o, "cifar", nn::KernelMode::kDataDependent, b.cifar_samples,
        Env::large_workload_environment());
  if (o.workload == "mnist_cf")
    return std::make_unique<CampaignWorkload>(
        o, "mnist", nn::KernelMode::kConstantFlow, b.mnist_samples,
        Env::default_environment());
  if (o.workload == "sweep_mnist")
    return std::make_unique<SweepWorkload>(o, b.sweep_samples);
  if (o.workload == "service_tenants")
    return std::make_unique<ServiceWorkload>(o, b);
  usage("unknown workload " + o.workload);
}

// --- Checks against committed expectations ------------------------------

Check digest_check(const Options& o, const Budget& b, const std::string& got) {
  const std::filesystem::path file =
      std::filesystem::path(o.expected_dir) /
      ("seed" + std::to_string(o.seed) + ".json");
  if (o.expected_dir.empty() || !std::filesystem::exists(file))
    return {"digest.trace_pure", true,
            got + " (no expectation recorded for seed " +
                std::to_string(o.seed) + ")"};
  std::ifstream in(file);
  std::stringstream text;
  text << in.rdbuf();
  const util::JsonValue doc = util::parse_json(text.str());
  const util::JsonValue* budget = doc.find(b.name);
  const util::JsonValue* want = budget ? budget->find(o.workload) : nullptr;
  if (want == nullptr)
    return {"digest.trace_pure", true,
            got + " (no expectation for " + o.workload + ")"};
  return {"digest.trace_pure", want->as_string() == got,
          "got " + got + ", expected " + want->as_string()};
}

// --- Output -------------------------------------------------------------

void write_metric(util::JsonWriter& w, const Metric& m) {
  w.key(m.name).begin_object();
  w.key("unit").value(m.unit);
  w.key("better").value(m.better);
  w.key("exact").value(m.exact);
  w.key("value").value_exact(m.value);
  w.end_object();
}

/// The fastest of a time repeated over a run.  A shared host slows this
/// process by 1.5-2x for seconds to minutes at a time, and CPU time slows
/// with it, so a median or any other quantile moves with the share of
/// the run that was slowed; the minimum moves only when all of it was.
double fastest(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

/// One value per metric over all of a run's verdicts, each of which does
/// the same work.  A campaign's verdict_s is its fastest time outside
/// the measurement chunks plus its chunk count times the fastest chunk;
/// the sweep's and the service's is the fastest verdict.  The service's
/// job latencies are percentiles, over its executed interactive jobs, of
/// each job's fastest latency across the verdicts.
std::vector<Metric> end_to_end(const std::vector<double>& setup_s,
                               const std::vector<RepResult>& reps,
                               double peak_rss_mb) {
  std::vector<double> whole, outside, chunks;
  std::size_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    chunks.insert(chunks.end(), r.chunk_s.begin(), r.chunk_s.end());
    attempted += r.attempted;
    failed += r.failed;
    if (!r.complete) continue;
    whole.push_back(r.verdict_s);
    outside.push_back(r.outside_s);
  }
  const RepResult& first = reps.front();  // always complete
  const double verdict_s =
      chunks.empty() ? fastest(whole)
                     : fastest(outside) + static_cast<double>(
                                              first.chunk_s.size()) *
                                              fastest(chunks);
  const double n = static_cast<double>(first.measurements);
  std::vector<double> jobs;
  for (std::size_t k = 0; k < first.job_latency_s.size(); ++k) {
    std::vector<double> job;
    for (const RepResult& r : reps)
      if (r.complete) job.push_back(r.job_latency_s.at(k));
    jobs.push_back(fastest(job));
  }
  // A campaign or sweep verdict is one job.
  if (jobs.empty()) jobs = {verdict_s};
  return {
      {"setup_s", "s", "lower", false, fastest(setup_s)},
      {"verdict_s", "s", "lower", false, verdict_s},
      {"measurements_per_s", "1/s", "higher", false, n / verdict_s},
      {"measurements_per_verdict", "count", "lower", true,
       n / static_cast<double>(first.verdicts)},
      {"job_latency_p50_s", "s", "lower", false,
       bench::perf::percentile(jobs, 0.5)},
      {"job_latency_p75_s", "s", "lower", false,
       bench::perf::percentile(jobs, 0.75)},
      {"peak_rss_mb", "MiB", "lower", false, peak_rss_mb},
      {"success_ratio", "fraction", "higher", true,
       static_cast<double>(attempted - failed) /
           static_cast<double>(attempted)},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int prime(const Options& o) {
  for (const char* which : {"mnist", "cifar"}) {
    if (std::filesystem::exists(cached_weights(o.cache_dir, which))) continue;
    nn::ZooConfig zoo;
    zoo.cache_dir = o.cache_dir;
    const nn::TrainedModel t = std::string(which) == "mnist"
                                   ? nn::get_or_train_mnist(zoo)
                                   : nn::get_or_train_cifar(zoo);
    std::fprintf(stderr, "[prime] %s model ready (test accuracy %.1f%%)\n",
                 which, t.test_accuracy * 100.0);
  }
  return 0;
}

int run(const Options& o) {
  const Budget& budget = o.smoke ? kSmokeBudget : kFullBudget;
  std::unique_ptr<Workload> w = make_workload(o, budget);
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  };

  // Timed, untraced verdicts, each on freshly set-up state, for about
  // o.seconds.  The first always completes.  After it, a workload that
  // takes a deadline runs verdicts until the time is up, the last one
  // cut short; any other starts another verdict while half of one still
  // fits.  The peak RSS is read after the first verdict, so it does not
  // depend on how many verdicts the run had time for.
  std::vector<RepResult> reps;
  double rss = 0.0;
  if (o.seconds > 0.0) {
    const auto begin = Clock::now();
    auto left = [&] { return o.seconds - seconds_since(begin); };
    auto set_up = [&] {
      for (std::size_t i = 0; i < kSetupsPerVerdict; ++i) timed_setup();
    };
    set_up();
    reps.push_back(w->run(nullptr, 0.0));
    rss = peak_rss_mb();
    const double setups_s = seconds_since(begin) - reps.back().verdict_s;
    while (reps.size() < kMaxReps &&
           (w->takes_deadline()
                ? left() >= kMinCutVerdictS
                : left() >= 0.5 * (setups_s + reps.back().verdict_s))) {
      set_up();
      reps.push_back(w->run(nullptr, w->takes_deadline() ? left() : 0.0));
    }
  }

  Tracer tracer;
  std::optional<RepResult> traced;
  if (o.traced) {
    timed_setup();
    Tracer::Scope root(&tracer, "bench.verdict");
    traced = w->run(&tracer, 0.0);
  }
  if (reps.empty() && !traced)
    usage("nothing to run: give --seconds or --traced");

  std::vector<Check> checks;
  w->check(checks);
  const std::string digest = w->digest();
  if (!digest.empty()) checks.push_back(digest_check(o, budget, digest));

  std::vector<Metric> layers;
  if (traced) {
    bench::perf::DecompositionInput in = w->decomposition();
    in.slots_per_category = budget.decompose_per_category;
    const bench::perf::DecompositionResult d =
        bench::perf::decompose(in, tracer);
    layers = d.metrics;
    checks.push_back({"decompose.replay_matches_live", d.replay_matches_live,
                      std::to_string(d.slots) + " slots"});
    checks.push_back({"decompose.components_match_pmu",
                      d.components_match_pmu,
                      "standalone hierarchy/predictor vs live PMU"});

    analysis::LintOptions lint;  // the service's admission options
    lint.mode = in.mode;
    lint.model_name = "submission";
    lint.fail_on_undeclared = true;
    const std::vector<std::size_t> shape = input_shape(*in.dataset);
    for (std::size_t i = 0; i < kLintRepeats; ++i) {
      Tracer::Scope span(&tracer, "analysis.lint");
      (void)analysis::lint(*in.model, shape, lint);
    }
    add_layer(layers, "analysis.lint_ms", "ms", false,
              bench::perf::percentile(tracer.durations_ms("analysis.lint"),
                                      0.5));
    w->layer_metrics(tracer, d.measure_mean_ms, layers);
  }

  std::size_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
  }
  if (traced) {
    attempted += traced->attempted;
    failed += traced->failed;
  }
  const bool correct =
      failed == 0 && std::all_of(checks.begin(), checks.end(),
                                 [](const Check& c) { return c.ok; });

  util::JsonWriter j;
  j.begin_object();
  j.key("schema").value("sce-bench-perf-workload/2");
  j.key("workload").value(o.workload);
  j.key("seed").value(o.seed);
  j.key("budget").value(budget.name);
  j.key("correct").value(correct);
  j.key("attempted").value(static_cast<std::uint64_t>(attempted));
  j.key("failed").value(static_cast<std::uint64_t>(failed));
  j.key("digest").value(digest);
  j.key("checks").begin_array();
  for (const Check& c : checks) {
    j.begin_object();
    j.key("name").value(c.name);
    j.key("ok").value(c.ok);
    j.key("detail").value(c.detail);
    j.end_object();
  }
  j.end_array();
  j.key("end_to_end").begin_object();
  if (!reps.empty())
    for (const Metric& m : end_to_end(setup_s, reps, rss)) write_metric(j, m);
  j.end_object();
  j.key("per_layer").begin_object();
  for (const Metric& m : layers) write_metric(j, m);
  j.end_object();
  if (traced) {
    j.key("traced_verdict_s").value_exact(traced->verdict_s);
    j.key("spans").value(static_cast<std::uint64_t>(tracer.spans().size()));
  }
  j.end_object();

  if (o.out.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::ofstream(o.out) << j.str() << '\n';
  }
  if (traced && !o.trace_out.empty())
    std::ofstream(o.trace_out) << tracer.chrome_json() << '\n';
  for (const Check& c : checks)
    if (!c.ok)
      std::fprintf(stderr, "perf_breakdown: %s: check %s failed: %s\n",
                   o.workload.c_str(), c.name.c_str(), c.detail.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    // The service logs every preemption; keep stderr for problems.
    util::set_log_level(util::LogLevel::kWarn);
    return o.prime ? prime(o) : run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
