// Shared pieces of the time-to-verdict benchmark (perf_breakdown):
// the in-memory span recorder, the metric record every layer reports
// into, and the per-slot decomposition of one instrumented measurement.
//
// Every span wraps a call into one of the library's public functions;
// nothing inside src/ is instrumented, so the numbers describe the
// library exactly as users link it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "hpc/simulated_pmu.hpp"
#include "nn/model.hpp"

namespace sce::bench::perf {

/// Spans held in memory while the benchmark runs and written once, at
/// exit, as Chrome trace-event JSON.  Thread-safe: the service workload
/// records from two tenant threads at once, each with its own parent
/// stack.
class Tracer {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<call>"
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at a root
    std::int64_t slot = -1;    ///< measurement slot or job index, -1 if none
    std::size_t lane = 0;      ///< recording thread, in first-seen order
    double ms() const { return (end_us - start_us) / 1000.0; }
  };

  /// Opens a span on construction and closes it on destruction.  With a
  /// null tracer it records nothing, so one code path serves the timed
  /// (untraced) and the traced repetitions.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::int64_t slot = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Durations (ms) of every closed span called `name`, in opening order.
  std::vector<double> durations_ms(const std::string& name) const;
  std::vector<Span> spans() const;
  std::string chrome_json() const;

 private:
  std::size_t open(std::string name, std::int64_t slot);
  void close(std::size_t index);
  double now_us() const;

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<std::size_t>> stacks_;
  std::map<std::thread::id, std::size_t> lanes_;
};

/// One reported number.  `exact` marks counts that are a pure function
/// of the seed and the dynamic trace: bench_compare requires them to
/// match bit for bit.
struct Metric {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" | "higher"
  bool exact = false;
  double value = 0.0;
};

double mean(const std::vector<double>& xs);
/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> xs, double q);

/// Inputs of the decomposition pass: the workload's model, its permuted
/// dataset, and the PMU configuration and measurement-key layout its
/// campaign uses.
struct DecompositionInput {
  const nn::Sequential* model = nullptr;
  const data::Dataset* dataset = nullptr;
  std::vector<int> categories;
  nn::KernelMode mode = nn::KernelMode::kDataDependent;
  hpc::SimulatedPmuConfig pmu;
  std::size_t slots_per_category = 25;
  std::size_t warmups = 2;
};

struct DecompositionResult {
  std::vector<Metric> metrics;
  /// Live mean measurement time; core.campaign_self_s subtracts it.
  double measure_mean_ms = 0.0;
  /// Replay through TraceBuffer + measure_trace reproduced every live
  /// sample bit for bit.
  bool replay_matches_live = true;
  /// The bench's standalone hierarchy and predictor reproduced the live
  /// PMU's cache-miss and branch-miss counts for every slot, so their
  /// timings measure the same work the PMU does.
  bool components_match_pmu = true;
  std::size_t slots = 0;
};

/// Time each stage of one instrumented measurement, slot by slot, in a
/// fixed order (see README.md, "Traced run").
DecompositionResult decompose(const DecompositionInput& input, Tracer& tracer);

}  // namespace sce::bench::perf
