#include "core/fixed_vs_random.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "campaign_helpers.hpp"
#include "hpc/fault_injection.hpp"
#include "hpc/instrument_factory.hpp"
#include "hpc/simulated_pmu.hpp"
#include "util/error.hpp"

namespace sce::core {
namespace {

hpc::SimulatedPmu quiet_pmu() {
  hpc::SimulatedPmuConfig cfg;
  cfg.environment = hpc::SimulatedPmuConfig::no_environment();
  return hpc::SimulatedPmu(cfg);
}

/// Run the screen over a caller-owned PMU through the Campaign API.
FixedVsRandomResult screen(const nn::Sequential& model,
                           const data::Dataset& ds, hpc::SimulatedPmu& pmu,
                           const FixedVsRandomConfig& cfg) {
  hpc::SingleInstrumentFactory instruments(pmu, pmu);
  return Campaign(model, ds, instruments).fixed_vs_random(cfg);
}

/// Every event's full/first/second t statistic, compared bit for bit.
void expect_identical_t(const FixedVsRandomResult& a,
                        const FixedVsRandomResult& b) {
  for (hpc::HpcEvent e : hpc::all_events()) {
    SCOPED_TRACE(hpc::to_string(e));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.of(e).full.t),
              std::bit_cast<std::uint64_t>(b.of(e).full.t));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.of(e).first.t),
              std::bit_cast<std::uint64_t>(b.of(e).first.t));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.of(e).second.t),
              std::bit_cast<std::uint64_t>(b.of(e).second.t));
  }
}

/// Trace-pure rigs behind a FaultInjectingProvider that fails start/
/// stop/read transiently at `transient_rate` (a distinct fault stream
/// per shard).
hpc::CallbackInstrumentFactory flaky_trace_pure_factory(
    double transient_rate) {
  return hpc::CallbackInstrumentFactory(
      [transient_rate](std::size_t shard, std::size_t) {
        auto pmu = std::make_unique<testing::TracePurePmu>();
        hpc::FaultConfig faults;
        faults.transient_rate = transient_rate;
        faults.seed = 0xFA17 + shard;
        auto provider =
            std::make_unique<hpc::FaultInjectingProvider>(*pmu, faults);
        return hpc::Instrument::adopt(std::move(provider), std::move(pmu));
      },
      "flaky-trace-pure");
}

TEST(FixedVsRandom, DataDependentKernelsLeak) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/10);
  hpc::SimulatedPmu pmu = quiet_pmu();
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 60;
  const FixedVsRandomResult result =
      screen(model, ds, pmu, cfg);
  EXPECT_TRUE(result.any_leak());
  // The fixed population is one image: its instruction count is constant,
  // the random population's varies -> enormous |t| on instructions.
  EXPECT_TRUE(result.of(hpc::HpcEvent::kInstructions).leaks);
}

TEST(FixedVsRandom, ConstantFlowPassesOnInstructionCounts) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/10);
  hpc::SimulatedPmu pmu = quiet_pmu();
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 40;
  cfg.kernel_mode = nn::KernelMode::kConstantFlow;
  const FixedVsRandomResult result =
      screen(model, ds, pmu, cfg);
  EXPECT_FALSE(result.of(hpc::HpcEvent::kInstructions).leaks);
  EXPECT_FALSE(result.of(hpc::HpcEvent::kBranches).leaks);
}

TEST(FixedVsRandom, TwoPhaseRequiresAgreement) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/10);
  hpc::SimulatedPmu pmu = quiet_pmu();
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 60;
  const FixedVsRandomResult result =
      screen(model, ds, pmu, cfg);
  for (const auto& r : result.per_event) {
    if (r.leaks) {
      EXPECT_GT(std::fabs(r.first.t), cfg.t_threshold);
      EXPECT_GT(std::fabs(r.second.t), cfg.t_threshold);
      EXPECT_EQ(std::signbit(r.first.t), std::signbit(r.second.t));
    }
  }
}

TEST(FixedVsRandom, SinglePhaseUsesFullTest) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/10);
  hpc::SimulatedPmu pmu = quiet_pmu();
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 40;
  cfg.two_phase = false;
  const FixedVsRandomResult result =
      screen(model, ds, pmu, cfg);
  for (const auto& r : result.per_event)
    EXPECT_EQ(r.leaks, std::fabs(r.full.t) > cfg.t_threshold);
}

TEST(FixedVsRandom, ValidationErrors) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset();
  hpc::SimulatedPmu pmu = quiet_pmu();

  FixedVsRandomConfig too_few;
  too_few.samples_per_population = 2;
  EXPECT_THROW(screen(model, ds, pmu, too_few),
               InvalidArgument);

  FixedVsRandomConfig bad_category;
  bad_category.fixed_category = 99;
  EXPECT_THROW(
      screen(model, ds, pmu, bad_category),
      InvalidArgument);
}

TEST(FixedVsRandom, RenderListsAllEvents) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/6);
  hpc::SimulatedPmu pmu = quiet_pmu();
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 20;
  const FixedVsRandomResult result =
      screen(model, ds, pmu, cfg);
  const std::string text = render_fixed_vs_random(result);
  for (hpc::HpcEvent e : hpc::all_events())
    EXPECT_NE(text.find(hpc::to_string(e)), std::string::npos);
  EXPECT_NE(text.find("verdict"), std::string::npos);
}

// The header promises that the merged populations do not depend on how
// the pair range is partitioned or executed.
TEST(FixedVsRandom, ShardAndThreadInvariant) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/10);
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 40;
  cfg.num_shards = 1;
  cfg.num_threads = 1;
  auto serial_rigs = testing::trace_pure_factory();
  const FixedVsRandomResult serial =
      Campaign(model, ds, serial_rigs).fixed_vs_random(cfg);

  for (const auto& [shards, threads] :
       {std::pair<std::size_t, std::size_t>{3, 1}, {3, 3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    cfg.num_shards = shards;
    cfg.num_threads = threads;
    auto rigs = testing::trace_pure_factory();
    expect_identical_t(serial,
                       Campaign(model, ds, rigs).fixed_vs_random(cfg));
  }
}

// Transient provider faults are retried per measurement slot; trace-pure
// values do not depend on the retry's measurement key, so the screen
// matches the fault-free run exactly.
TEST(FixedVsRandom, RetriesTransientFaults) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = testing::tiny_dataset(/*per_class=*/10);
  FixedVsRandomConfig cfg;
  cfg.samples_per_population = 40;
  cfg.num_shards = 3;
  auto clean_rigs = testing::trace_pure_factory();
  const FixedVsRandomResult clean =
      Campaign(model, ds, clean_rigs).fixed_vs_random(cfg);

  auto flaky_rigs = flaky_trace_pure_factory(0.05);
  FixedVsRandomResult flaky;
  ASSERT_NO_THROW(flaky =
                      Campaign(model, ds, flaky_rigs).fixed_vs_random(cfg));
  expect_identical_t(clean, flaky);
}

}  // namespace
}  // namespace sce::core
