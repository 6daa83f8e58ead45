// Replayed SimulatedPmu measurements must be bit-identical to the live
// path.  Record and live runs share ONE InferencePlan instance: the
// simulated cache counters depend on the buffers' within-page offsets,
// so two separately-constructed plans are not comparable bit-for-bit
// (see tests/core/campaign_helpers.hpp) — but one plan driven twice is.
#include "hpc/simulated_pmu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/events.hpp"
#include "nn/plan.hpp"
#include "nn/zoo.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/rng.hpp"

namespace sce::hpc {
namespace {

struct ZooCase {
  std::string name;
  nn::Sequential model;
  nn::Tensor input;
};

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  const auto add = [&cases](std::string name, nn::Sequential model,
                            std::vector<std::size_t> shape,
                            std::uint64_t seed) {
    util::Rng rng(seed);
    model.initialize(rng);
    nn::Tensor input(shape);
    for (std::size_t i = 0; i < input.numel(); ++i)
      input[i] = static_cast<float>(rng.normal(0.2, 0.8));
    cases.push_back({std::move(name), std::move(model), std::move(input)});
  };
  add("mnist", nn::build_mnist_cnn(), {1, 28, 28}, 21);
  add("cifar", nn::build_cifar_cnn(), {3, 32, 32}, 22);
  add("sequence", nn::build_sequence_rnn(), {1, 12, 8}, 23);
  return cases;
}

void expect_samples_equal(const CounterSample& replayed,
                          const CounterSample& live) {
  for (HpcEvent e : all_events()) {
    EXPECT_TRUE(replayed.has(e));
    EXPECT_EQ(replayed[e], live[e]) << to_string(e);
  }
}

/// Record one trace and measure it live through the same plan under the
/// same key, on two fresh PMUs with the same config.
void record_and_compare(nn::InferencePlan& plan, const nn::Tensor& input,
                        nn::KernelMode mode, const SimulatedPmuConfig& cfg,
                        std::uint64_t key) {
  uarch::TraceBuffer trace;
  plan.register_regions(trace);
  (void)plan.run(input, trace, mode);

  SimulatedPmu live(cfg);
  live.set_measurement_key(key);
  live.start();
  (void)plan.run(input, live.sink(), mode);
  live.stop();
  const CounterSample want = live.read();

  SimulatedPmu replayed(cfg);
  replayed.set_measurement_key(key);
  const CounterSample got = replayed.measure_trace(trace);
  expect_samples_equal(got, want);
}

TEST(Replay, ColdDefaultConfigMatchesLiveForEveryZooModel) {
  SimulatedPmuConfig cfg;  // cold, gshare, default environment
  for (ZooCase& zc : zoo_cases()) {
    nn::InferencePlan plan(zc.model, zc.input.shape());
    for (nn::KernelMode mode :
         {nn::KernelMode::kDataDependent, nn::KernelMode::kConstantFlow}) {
      SCOPED_TRACE(zc.name);
      record_and_compare(plan, zc.input, mode, cfg, /*key=*/0x5151);
    }
  }
}

TEST(Replay, ColdConfigVariantsMatchLive) {
  ZooCase zc = std::move(zoo_cases().front());
  nn::InferencePlan plan(zc.model, zc.input.shape());

  // Random replacement exercises the one stateful RNG the cold start
  // does NOT reset (the victim stream), plus the next-line prefetcher.
  SimulatedPmuConfig random_l1;
  random_l1.hierarchy.l1d = {"L1D", 8 * 1024, 4, 64,
                             uarch::ReplacementPolicy::kRandom};
  random_l1.hierarchy.enable_next_line_prefetch = true;
  random_l1.environment = SimulatedPmuConfig::no_environment();

  // Tiny hierarchy, different predictor family.
  SimulatedPmuConfig tiny;
  tiny.hierarchy.l1d = {"L1D", 4 * 1024, 2, 64,
                        uarch::ReplacementPolicy::kFifo};
  tiny.hierarchy.l2 = {"L2", 8 * 1024, 2, 64,
                       uarch::ReplacementPolicy::kFifo};
  tiny.predictor = uarch::PredictorKind::kTwoLevelLocal;

  int key = 7;
  for (const SimulatedPmuConfig& cfg : {random_l1, tiny}) {
    SCOPED_TRACE(key);
    record_and_compare(plan, zc.input, nn::KernelMode::kDataDependent, cfg,
                       static_cast<std::uint64_t>(key++));
  }
}

/// Warm sessions: page identity must persist *across* replayed
/// measurements the way raw addresses persist live.  Two traces recorded
/// through buffers with the same registration sequence replay
/// session-stable page ids, so the warm consumer's first-touch map keeps
/// assigning the same frames the live run did.
void warm_two_measurement_compare(const SimulatedPmuConfig& cfg) {
  ZooCase zc = std::move(zoo_cases().front());
  nn::InferencePlan plan(zc.model, zc.input.shape());
  util::Rng rng(31);
  nn::Tensor second(zc.input.shape());
  for (std::size_t i = 0; i < second.numel(); ++i)
    second[i] = static_cast<float>(rng.normal(-0.1, 0.5));

  uarch::TraceBuffer t1;
  uarch::TraceBuffer t2;
  plan.register_regions(t1);
  plan.register_regions(t2);
  (void)plan.run(zc.input, t1, nn::KernelMode::kDataDependent);
  (void)plan.run(second, t2, nn::KernelMode::kDataDependent);

  SimulatedPmu live(cfg);
  std::vector<CounterSample> want;
  std::uint64_t key = 100;
  for (const nn::Tensor* in : {&zc.input, &second}) {
    live.set_measurement_key(key++);
    live.start();
    (void)plan.run(*in, live.sink(), nn::KernelMode::kDataDependent);
    live.stop();
    want.push_back(live.read());
  }

  SimulatedPmu replayed(cfg);
  key = 100;
  for (const uarch::TraceBuffer* t : {&t1, &t2}) {
    replayed.set_measurement_key(key);
    expect_samples_equal(replayed.measure_trace(*t), want[key - 100]);
    ++key;
  }
}

TEST(Replay, WarmSessionMatchesLive) {
  SimulatedPmuConfig cfg;
  cfg.cold_start_per_measurement = false;
  cfg.environment = SimulatedPmuConfig::no_environment();
  warm_two_measurement_compare(cfg);
}

TEST(Replay, WarmPollutedSessionMatchesLive) {
  SimulatedPmuConfig cfg;
  cfg.cold_start_per_measurement = false;
  cfg.pollution_period = 128;
  cfg.environment = SimulatedPmuConfig::no_environment();
  warm_two_measurement_compare(cfg);
}

TEST(Replay, ComponentReplaysComposeToTheFullSample) {
  // The sweep engine never replays a full trace per grid point: it
  // replays the memory class into a hierarchy-only PMU, the control-flow
  // class into a predictor-only PMU, and assembles the eight events from
  // the parts.  That composition must equal the live workload counts.
  ZooCase zc = std::move(zoo_cases().front());
  nn::InferencePlan plan(zc.model, zc.input.shape());
  uarch::TraceBuffer trace;
  plan.register_regions(trace);
  (void)plan.run(zc.input, trace, nn::KernelMode::kDataDependent);

  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::no_environment();

  SimulatedPmu live(cfg);
  live.start();
  (void)plan.run(zc.input, live.sink(), nn::KernelMode::kDataDependent);
  live.stop();
  const CounterSample want = live.workload_counts();

  SimulatedPmu mem(cfg);
  mem.start();
  mem.consume(trace, uarch::ReplayClass::kMemory);
  mem.stop();

  SimulatedPmu br(cfg);
  br.start();
  br.consume(trace, uarch::ReplayClass::kControlFlow);
  br.stop();

  const uarch::TraceSummary& s = trace.summary();
  ArchCounts counts;
  counts.loads = s.loads;
  counts.stores = s.stores;
  counts.retired = s.retired;
  counts.branches = s.branches();
  counts.mispredicts = br.predictor().stats().mispredicts;
  counts.memory_cycles = mem.memory_cycles();
  counts.llc_references = mem.hierarchy().last_level_references();
  counts.llc_misses = mem.hierarchy().last_level_misses();
  const CounterSample composed = assemble_workload_counts(cfg.core, counts);
  expect_samples_equal(composed, want);
}

}  // namespace
}  // namespace sce::hpc
