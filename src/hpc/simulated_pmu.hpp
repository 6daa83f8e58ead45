// Simulated Performance Monitoring Unit.
//
// Substitutes for the Intel PMU the paper reads through `perf`: the
// instrumented CNN kernels stream their dynamic trace into this sink,
// which drives the cache hierarchy, branch predictor and TLB models and
// derives the same eight counters `perf stat` reports.
//
// An EnvironmentModel adds, per measurement, the contribution of
// everything the real evaluator cannot separate from the workload —
// framework/runtime code, other processes, OS jitter.  Each event gets a
// fixed base count plus Gaussian noise.  The defaults are calibrated so
// that the *ratios* between events match the paper's Figure 2(b) dump
// (≈1000x smaller absolute scale, since the simulated workload is a
// from-scratch kernel rather than a full TensorFlow stack) and so that
// noise magnitudes reproduce the paper's t-value regimes: cache-misses
// strongly input-dependent, branches marginally so.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "hpc/counter_provider.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/core_model.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/machine.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/rng.hpp"

namespace sce::hpc {

/// Fixed base count + Gaussian jitter added per measurement per event.
struct EnvironmentSpec {
  double base = 0.0;
  double stddev = 0.0;
};

inline bool operator==(const EnvironmentSpec& a, const EnvironmentSpec& b) {
  return a.base == b.base && a.stddev == b.stddev;
}
inline bool operator!=(const EnvironmentSpec& a, const EnvironmentSpec& b) {
  return !(a == b);
}

struct SimulatedPmuConfig {
  uarch::HierarchyConfig hierarchy{};
  uarch::PredictorKind predictor = uarch::PredictorKind::kGShare;
  uarch::CoreModelConfig core{};

  /// Flush caches/TLB/predictor when a measurement starts — models each
  /// classification running against a cold microarchitectural state (a
  /// fresh `perf stat` invocation around one classification, with the
  /// intervening work of other tenants evicting the model's footprint).
  ///
  /// Traced addresses always pass through a canonical first-touch page
  /// mapping: each distinct 4 KiB page is assigned a frame in first-touch
  /// order, mimicking an OS physical allocator handing a fresh process
  /// consecutive frames (caches below L1 are physically indexed on real
  /// parts).  This makes the simulated counters independent of ASLR and
  /// of which pages the heap hands out.  The mapping resets whenever the
  /// caches are cold-started.
  bool cold_start_per_measurement = true;

  /// If nonzero, evict one random line from every level each time this
  /// many line accesses complete (models co-tenant cache interference).
  std::size_t pollution_period = 0;

  /// Per-event environment contribution (see file comment). Indexed by
  /// HpcEvent order.
  std::array<EnvironmentSpec, kNumEvents> environment =
      default_environment();
  std::uint64_t noise_seed = 99;

  static std::array<EnvironmentSpec, kNumEvents> default_environment();
  /// Environment calibrated for ~5M-instruction workloads (e.g. the
  /// CIFAR-scale model): the runtime/framework contribution and its jitter
  /// grow with execution time, so both bases and noise are scaled up.
  static std::array<EnvironmentSpec, kNumEvents> large_workload_environment();
  /// Zero environment: counters reflect the workload alone (used by unit
  /// tests and the microarchitecture ablations).
  static std::array<EnvironmentSpec, kNumEvents> no_environment();

  /// True when a measurement's workload counts (everything but the
  /// environment overlay) are a pure function of the traced execution:
  /// the caches, TLB, predictor and page mapping start cold, no keyed
  /// pollution stream evicts lines, and no cache level draws random
  /// victims (that RNG survives flushes).  A caller that measures one
  /// input on one plan more than once may then reuse its counts — the
  /// live campaign's recall memo and the sweep's per-input class caches
  /// both rest on this one rule.
  bool workload_counts_are_pure() const;
};

/// Field-wise equality; the sweep engine uses it to deduplicate grid
/// points that drive identical models.
inline bool operator==(const SimulatedPmuConfig& a,
                       const SimulatedPmuConfig& b) {
  return a.hierarchy == b.hierarchy && a.predictor == b.predictor &&
         a.core == b.core &&
         a.cold_start_per_measurement == b.cold_start_per_measurement &&
         a.pollution_period == b.pollution_period &&
         a.environment == b.environment && a.noise_seed == b.noise_seed;
}
inline bool operator!=(const SimulatedPmuConfig& a,
                       const SimulatedPmuConfig& b) {
  return !(a == b);
}

/// Architectural totals of one measurement, as accumulated by a live
/// SimulatedPmu or assembled from per-component trace replays.
struct ArchCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t retired = 0;
  /// Conditional + structural branches.
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t memory_cycles = 0;
  std::uint64_t llc_references = 0;
  std::uint64_t llc_misses = 0;
};

/// The one place the eight perf events are derived from architectural
/// counts.  SimulatedPmu::workload_counts() routes through this, and the
/// sweep engine calls it directly when it composes a sample from a
/// memory-class replay and a branch-class replay — keeping the two paths
/// bit-identical by construction.
CounterSample assemble_workload_counts(const uarch::CoreModelConfig& core,
                                       const ArchCounts& counts);

/// The environment overlay applied by SimulatedPmu::read(): one
/// truncated-normal draw per nonzero-spec event, in all_events() order,
/// from `rng`.  Exposed so replay drivers can reproduce a keyed
/// measurement's noise with Rng(mix64(noise_seed, key)).
void apply_environment(CounterSample& sample,
                       const std::array<EnvironmentSpec, kNumEvents>& specs,
                       util::Rng& rng);

/// The CounterProvider half of the simulated PMU: measurement keys, the
/// environment overlay, trace replay and reads.  Every event the kernels
/// stream lands in the uarch::SimulatedMachine it derives from.
class SimulatedPmu final : public CounterProvider,
                           public uarch::SimulatedMachine {
 public:
  explicit SimulatedPmu(SimulatedPmuConfig config = {});

  // --- CounterProvider ---
  std::string name() const override { return "simulated-pmu"; }
  std::vector<HpcEvent> supported_events() const override;
  void start() override;
  void stop() override;
  CounterSample read() override;
  /// Keyed mode: the next start() reseeds the environment-noise and
  /// pollution streams from mix64(noise_seed, key), making the
  /// measurement's stochastic overlay a pure function of the key.  The
  /// key persists until replaced, so a retried measurement with a fresh
  /// key draws fresh (but still reproducible) noise.
  bool set_measurement_key(std::uint64_t key) override;

  /// The trace sink kernels should write into (this object itself).
  uarch::TraceSink& sink() { return *this; }

  // --- Trace replay ----------------------------------------------------

  /// Feed a recorded trace (or one component class of it) into the
  /// running measurement, as if the kernels had streamed it live.  When
  /// this measurement is cold-started — the reproducibility default — the
  /// buffer's canonical addresses are exactly what normalize() would
  /// produce, so the per-access page hash is skipped; otherwise the trace
  /// replays in its session-stable address space through the ordinary
  /// normalization path.  Either way
  /// the resulting counts are bit-identical to the live run that was
  /// recorded (tests/hpc/replay_test.cpp).  One trace per measurement,
  /// mirroring the campaign's one-classification-per-measurement shape.
  void consume(const uarch::TraceBuffer& trace,
               uarch::ReplayClass cls = uarch::ReplayClass::kAll);

  /// Convenience: start(), consume(trace), stop(), read() — one full
  /// replayed measurement under the current measurement key.
  CounterSample measure_trace(
      const uarch::TraceBuffer& trace,
      uarch::ReplayClass cls = uarch::ReplayClass::kAll);

  /// Architectural counts of the current/last measurement, without the
  /// environment overlay (for tests and ablations).
  CounterSample workload_counts() const;

  /// What read() returns for a measurement under `key` whose workload
  /// counts are `workload`: the environment overlay drawn from
  /// Rng(mix64(noise_seed, key)), exactly as start() seeds it.
  CounterSample read_keyed(CounterSample workload, std::uint64_t key) const;

  const SimulatedPmuConfig& config() const { return config_; }

 private:
  SimulatedPmuConfig config_;
  util::Rng noise_rng_;
  std::optional<std::uint64_t> measurement_key_;
};

}  // namespace sce::hpc
