#include "hpc/simulated_pmu.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/model.hpp"
#include "nn/plan.hpp"
#include "nn/zoo.hpp"
#include "util/alloc_hook.hpp"
#include "util/error.hpp"

namespace sce::hpc {
namespace {

SimulatedPmuConfig quiet_config() {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::no_environment();
  return cfg;
}

// Drives a small fixed synthetic workload into the PMU.
void run_synthetic_workload(SimulatedPmu& pmu,
                            const std::vector<float>& buffer,
                            bool branch_outcome) {
  for (std::size_t i = 0; i < buffer.size(); ++i)
    pmu.load(&buffer[i], sizeof(float));
  pmu.branch(0x1234, branch_outcome);
  pmu.structural_branches(10);
  pmu.retire(100);
}

TEST(SimulatedPmu, CountsKnownWorkloadExactly) {
  SimulatedPmu pmu(quiet_config());
  std::vector<float> buffer(32, 1.0f);
  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample s = pmu.read();

  // instructions = 32 loads + (1 + 10) branches + 100 retired.
  EXPECT_EQ(s[HpcEvent::kInstructions], 32u + 11u + 100u);
  EXPECT_EQ(s[HpcEvent::kBranches], 11u);
  // 32 floats = 128 bytes = at most 3 lines -> <= 3 LLC misses, >= 2.
  EXPECT_GE(s[HpcEvent::kCacheMisses], 2u);
  EXPECT_LE(s[HpcEvent::kCacheMisses], 3u);
  EXPECT_EQ(s[HpcEvent::kCacheMisses], s[HpcEvent::kCacheReferences]);
  EXPECT_GT(s[HpcEvent::kCycles], 0u);
  EXPECT_GE(s[HpcEvent::kCycles], s[HpcEvent::kRefCycles]);
  EXPECT_GT(s[HpcEvent::kBusCycles], 0u);
}

TEST(SimulatedPmu, EventsIgnoredWhenNotRunning) {
  SimulatedPmu pmu(quiet_config());
  std::vector<float> buffer(16, 1.0f);
  run_synthetic_workload(pmu, buffer, true);  // before start()
  pmu.start();
  pmu.stop();
  const CounterSample s = pmu.read();
  EXPECT_EQ(s[HpcEvent::kInstructions], 0u);
  EXPECT_EQ(s[HpcEvent::kCacheMisses], 0u);
}

TEST(SimulatedPmu, ReadWhileRunningThrows) {
  SimulatedPmu pmu(quiet_config());
  pmu.start();
  EXPECT_THROW(pmu.read(), InvalidArgument);
  pmu.stop();
}

TEST(SimulatedPmu, ColdStartMakesMeasurementsRepeatable) {
  SimulatedPmu pmu(quiet_config());
  std::vector<float> buffer(64, 1.0f);

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample first = pmu.read();

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample second = pmu.read();

  for (HpcEvent e : all_events()) EXPECT_EQ(first[e], second[e]);
}

TEST(SimulatedPmu, WarmCachesReduceMisses) {
  SimulatedPmuConfig cfg = quiet_config();
  cfg.cold_start_per_measurement = false;
  SimulatedPmu pmu(cfg);
  std::vector<float> buffer(256, 1.0f);

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample cold = pmu.read();

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample warm = pmu.read();

  EXPECT_GT(cold[HpcEvent::kCacheMisses], 0u);
  EXPECT_EQ(warm[HpcEvent::kCacheMisses], 0u);
}

TEST(SimulatedPmu, BranchMissesComeFromPredictor) {
  SimulatedPmu pmu(quiet_config());
  pmu.start();
  // Alternating outcomes at one site: early mispredicts guaranteed.
  for (int i = 0; i < 10; ++i) pmu.branch(0x999, i % 2 == 0);
  pmu.stop();
  const CounterSample s = pmu.read();
  EXPECT_GT(s[HpcEvent::kBranchMisses], 0u);
  EXPECT_EQ(s[HpcEvent::kBranches], 10u);
}

TEST(SimulatedPmu, StructuralBranchesCountButNeverMiss) {
  SimulatedPmu pmu(quiet_config());
  pmu.start();
  pmu.structural_branches(1000);
  pmu.stop();
  const CounterSample s = pmu.read();
  EXPECT_EQ(s[HpcEvent::kBranches], 1000u);
  EXPECT_EQ(s[HpcEvent::kBranchMisses], 0u);
}

TEST(SimulatedPmu, EnvironmentAddsBaseCounts) {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::default_environment();
  SimulatedPmu noisy(cfg);
  SimulatedPmu quiet(quiet_config());
  std::vector<float> buffer(32, 1.0f);

  for (auto* pmu : {&noisy, &quiet}) {
    pmu->start();
    run_synthetic_workload(*pmu, buffer, true);
    pmu->stop();
  }
  const CounterSample with_env = noisy.read();
  const CounterSample without = quiet.read();
  for (HpcEvent e : all_events())
    EXPECT_GT(with_env[e], without[e]) << to_string(e);
}

TEST(SimulatedPmu, EnvironmentNoiseVariesAcrossMeasurements) {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::default_environment();
  SimulatedPmu pmu(cfg);
  std::vector<float> buffer(32, 1.0f);

  std::set<std::uint64_t> observed;
  for (int i = 0; i < 5; ++i) {
    pmu.start();
    run_synthetic_workload(pmu, buffer, true);
    pmu.stop();
    observed.insert(pmu.read()[HpcEvent::kCycles]);
  }
  EXPECT_GT(observed.size(), 1u);
}

TEST(SimulatedPmu, PollutionIncreasesWarmMisses) {
  // Use a small L1D over a one-line L2 and LLC, so random evictions have
  // a realistic chance of hitting the working set (with the default
  // hierarchy, a line must be evicted from L1, L2 and LLC between touches
  // to re-miss).
  SimulatedPmuConfig base = quiet_config();
  base.cold_start_per_measurement = false;
  base.hierarchy.l1d = {"L1D", 4096, 4, 64, uarch::ReplacementPolicy::kLru};
  base.hierarchy.l2 = {"L2", 64, 1, 64, uarch::ReplacementPolicy::kLru};
  base.hierarchy.llc = {"LLC", 64, 1, 64, uarch::ReplacementPolicy::kLru};
  SimulatedPmuConfig polluted = base;
  polluted.pollution_period = 2;

  std::vector<float> buffer(512, 1.0f);
  std::uint64_t misses_clean = 0;
  std::uint64_t misses_polluted = 0;
  {
    SimulatedPmu pmu(base);
    for (int round = 0; round < 5; ++round) {
      pmu.start();
      run_synthetic_workload(pmu, buffer, true);
      pmu.stop();
      misses_clean += pmu.read()[HpcEvent::kCacheMisses];
    }
  }
  {
    SimulatedPmu pmu(polluted);
    for (int round = 0; round < 5; ++round) {
      pmu.start();
      run_synthetic_workload(pmu, buffer, true);
      pmu.stop();
      misses_polluted += pmu.read()[HpcEvent::kCacheMisses];
    }
  }
  EXPECT_GT(misses_polluted, misses_clean);
}

TEST(SimulatedPmu, SupportsAllEightEvents) {
  SimulatedPmu pmu;
  EXPECT_EQ(pmu.supported_events().size(), kNumEvents);
  EXPECT_EQ(pmu.name(), "simulated-pmu");
}

TEST(SimulatedPmu, WorkloadCountsExcludeEnvironment) {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::default_environment();
  SimulatedPmu pmu(cfg);
  std::vector<float> buffer(32, 1.0f);
  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample workload = pmu.workload_counts();
  const CounterSample read = pmu.read();
  EXPECT_EQ(workload[HpcEvent::kInstructions], 143u);
  EXPECT_GT(read[HpcEvent::kInstructions],
            workload[HpcEvent::kInstructions]);
}

TEST(SimulatedPmu, SteadyStateMeasurementsAreAllocationFree) {
  // The campaign's hot loop: one planned MNIST classification per keyed,
  // cold-started measurement.  After the first measurement has sized the
  // page table, nothing in the simulated machine may touch the heap —
  // not the first-touch page map, and not the prefetch or pollution
  // paths.
  data::SyntheticConfig data_cfg;
  data_cfg.examples_per_class = 2;
  data_cfg.num_classes = 2;
  const data::Dataset ds = data::make_mnist_like(data_cfg);
  nn::Sequential model = nn::build_mnist_cnn();
  util::Rng rng(21);
  model.initialize(rng);
  nn::Tensor staged;
  nn::image_to_tensor_into(ds[0].image, staged);
  nn::InferencePlan plan = model.plan(staged.shape());

  SimulatedPmuConfig prefetch;
  prefetch.hierarchy.enable_next_line_prefetch = true;
  prefetch.pollution_period = 97;
  const std::pair<const char*, SimulatedPmuConfig> configs[] = {
      {"default", SimulatedPmuConfig{}},
      {"next-line prefetch, polluted", prefetch}};
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    SimulatedPmu pmu(config);
    auto measure = [&](std::uint64_t key) {
      nn::image_to_tensor_into(ds[key % ds.size()].image, staged);
      (void)pmu.set_measurement_key(key);
      pmu.start();
      (void)plan.run(staged, pmu.sink(), nn::KernelMode::kDataDependent);
      pmu.stop();
      return pmu.read();
    };
    (void)measure(0);
    const util::AllocationCounter guard;
    for (std::uint64_t key = 1; key <= 4; ++key) (void)measure(key);
    EXPECT_EQ(guard.allocations(), 0u);
    EXPECT_GT(pmu.hierarchy().l1d_stats().accesses, 0u);
  }
}

TEST(CounterSample, PerfStatRendering) {
  CounterSample s;
  s[HpcEvent::kCacheMisses] = 8364694;
  const std::string text = s.to_perf_stat_string();
  EXPECT_NE(text.find("83,64,694"), std::string::npos);
  EXPECT_NE(text.find("cache-misses"), std::string::npos);
  EXPECT_NE(text.find("instructions"), std::string::npos);
}

}  // namespace
}  // namespace sce::hpc
