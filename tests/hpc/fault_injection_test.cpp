#include "hpc/fault_injection.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hpc/session.hpp"
#include "hpc/simulated_pmu.hpp"
#include "util/error.hpp"

namespace sce::hpc {
namespace {

SimulatedPmu quiet_pmu() {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::no_environment();
  return SimulatedPmu(cfg);
}

CounterSample one_measurement(FaultInjectingProvider& provider,
                              SimulatedPmu& pmu) {
  provider.start();
  pmu.retire(100);
  provider.stop();
  return provider.read();
}

TEST(FaultInjection, TransparentWhenAllRatesZero) {
  SimulatedPmu pmu = quiet_pmu();
  FaultInjectingProvider provider(pmu);
  const CounterSample s = one_measurement(provider, pmu);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s[HpcEvent::kInstructions], 100u);
  EXPECT_EQ(provider.stats().transient_failures, 0u);
  EXPECT_EQ(provider.stats().start_calls, 1u);
  EXPECT_EQ(provider.stats().stop_calls, 1u);
  EXPECT_EQ(provider.stats().read_calls, 1u);
  EXPECT_EQ(provider.stats().running_depth, 0);
}

TEST(FaultInjection, RejectsMalformedConfig) {
  SimulatedPmu pmu = quiet_pmu();
  FaultConfig bad;
  bad.transient_rate = 1.5;
  EXPECT_THROW(FaultInjectingProvider(pmu, bad), InvalidArgument);
  FaultConfig negative;
  negative.event_drop_rate = -0.1;
  EXPECT_THROW(FaultInjectingProvider(pmu, negative), InvalidArgument);
}

TEST(FaultInjection, TransientFaultsThrowAtRoughlyConfiguredRate) {
  SimulatedPmu pmu = quiet_pmu();
  FaultConfig cfg;
  cfg.transient_rate = 0.2;
  cfg.seed = 7;
  FaultInjectingProvider provider(pmu, cfg);
  int throws = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    try {
      provider.start();
      provider.stop();
    } catch (const TransientFailure&) {
      ++throws;
    }
  }
  // start+stop are two Bernoulli(0.2) draws per trial when start survives.
  EXPECT_GT(throws, trials / 5);      // well above zero
  EXPECT_LT(throws, 2 * trials / 3);  // and far below always
  EXPECT_EQ(provider.stats().transient_failures,
            static_cast<std::size_t>(throws));
}

TEST(FaultInjection, FaultSequenceIsReproducibleUnderSeed) {
  auto run = [](std::uint64_t seed) {
    SimulatedPmu pmu = quiet_pmu();
    FaultConfig cfg;
    cfg.transient_rate = 0.3;
    cfg.event_drop_rate = 0.2;
    cfg.seed = seed;
    FaultInjectingProvider provider(pmu, cfg);
    std::string trace;
    for (int i = 0; i < 50; ++i) {
      try {
        provider.start();
        pmu.retire(10);
        provider.stop();
        const CounterSample s = provider.read();
        trace += 'v';
        trace += std::to_string(s.present_count());
      } catch (const TransientFailure&) {
        trace += 'x';
      }
    }
    return trace;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(FaultInjection, DropsEventsFromSamples) {
  SimulatedPmu pmu = quiet_pmu();
  FaultConfig cfg;
  cfg.event_drop_rate = 0.5;
  cfg.seed = 3;
  FaultInjectingProvider provider(pmu, cfg);
  std::size_t missing_total = 0;
  for (int i = 0; i < 40; ++i) {
    const CounterSample s = one_measurement(provider, pmu);
    missing_total += kNumEvents - s.present_count();
    for (HpcEvent e : s.missing_events()) EXPECT_EQ(s[e], 0u);
  }
  EXPECT_GT(missing_total, 0u);
  EXPECT_EQ(provider.stats().events_dropped, missing_total);
}

TEST(FaultInjection, PermanentEventFailureTripsAfterThreshold) {
  SimulatedPmu pmu = quiet_pmu();
  FaultConfig cfg;
  cfg.permanent_fail_event = HpcEvent::kCacheMisses;
  cfg.permanent_fail_after = 3;
  FaultInjectingProvider provider(pmu, cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(provider.permanent_failure_active());
    EXPECT_TRUE(one_measurement(provider, pmu).has(HpcEvent::kCacheMisses));
  }
  EXPECT_TRUE(provider.permanent_failure_active());
  for (int i = 0; i < 5; ++i) {
    const CounterSample s = one_measurement(provider, pmu);
    EXPECT_FALSE(s.has(HpcEvent::kCacheMisses));
    EXPECT_TRUE(s.has(HpcEvent::kInstructions));  // others unaffected
  }
}

TEST(FaultInjection, InstrumentDeathTripsAfterConfiguredReads) {
  SimulatedPmu pmu = quiet_pmu();
  FaultConfig cfg;
  cfg.die_after_reads = 3;
  FaultInjectingProvider provider(pmu, cfg);
  EXPECT_FALSE(provider.dead());
  for (int i = 0; i < 3; ++i) (void)one_measurement(provider, pmu);
  EXPECT_TRUE(provider.dead());
  // Every operation now fails, forever.
  EXPECT_THROW(provider.start(), TransientFailure);
  EXPECT_THROW(provider.stop(), TransientFailure);
  EXPECT_THROW(provider.read(), TransientFailure);
  EXPECT_THROW(provider.start(), TransientFailure);
}

TEST(FaultInjection, InstrumentDeathIsInstanceStateNotKeyed) {
  // The same measurement keys on a fresh instrument succeed: death is a
  // property of the rig, not of the measurement — the contract the
  // campaign's shard failover depends on.
  SimulatedPmu pmu_a = quiet_pmu();
  SimulatedPmu pmu_b = quiet_pmu();
  FaultConfig cfg;
  cfg.die_after_reads = 2;
  FaultInjectingProvider dying(pmu_a, cfg);
  FaultInjectingProvider healthy(pmu_b, FaultConfig{});
  for (std::uint64_t key = 0; key < 2; ++key) {
    (void)dying.set_measurement_key(key);
    (void)one_measurement(dying, pmu_a);
  }
  (void)dying.set_measurement_key(7);
  EXPECT_THROW(one_measurement(dying, pmu_a), TransientFailure);
  (void)healthy.set_measurement_key(7);
  const CounterSample s = one_measurement(healthy, pmu_b);
  EXPECT_TRUE(s.complete());
}

TEST(FaultInjection, DeathUnconfiguredByDefault) {
  SimulatedPmu pmu = quiet_pmu();
  FaultInjectingProvider provider(pmu);
  for (int i = 0; i < 50; ++i) (void)one_measurement(provider, pmu);
  EXPECT_FALSE(provider.dead());
}

TEST(CounterSample, PresenceMaskBasics) {
  CounterSample s;
  EXPECT_TRUE(s.complete());
  s.drop(HpcEvent::kBusCycles);
  EXPECT_FALSE(s.complete());
  EXPECT_FALSE(s.has(HpcEvent::kBusCycles));
  EXPECT_EQ(s.present_count(), kNumEvents - 1);
  s.set(HpcEvent::kBusCycles, 42);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s[HpcEvent::kBusCycles], 42u);

  const CounterSample none = CounterSample::all_missing();
  EXPECT_EQ(none.present_count(), 0u);
  EXPECT_EQ(none.missing_events().size(), kNumEvents);
}

TEST(CounterSample, PerfStatStringShowsNotCounted) {
  CounterSample s;
  s.drop(HpcEvent::kRefCycles);
  const std::string text = s.to_perf_stat_string();
  EXPECT_NE(text.find("<not counted>"), std::string::npos);
  EXPECT_NE(text.find("ref-cycles"), std::string::npos);
}

// The satellite regression test: a throwing workload must still leave the
// provider stopped, both through measure() and ScopedMeasurement.
TEST(ScopedMeasurement, StopsCountersWhenWorkThrows) {
  SimulatedPmu pmu = quiet_pmu();
  FaultInjectingProvider spy(pmu);  // zero fault rates: pure call counter
  try {
    ScopedMeasurement scope(spy);
    throw std::runtime_error("workload died");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(spy.stats().start_calls, 1u);
  EXPECT_EQ(spy.stats().stop_calls, 1u);
  EXPECT_EQ(spy.stats().running_depth, 0);  // inner provider really stopped
}

FaultConfig stop_always_fails() {
  FaultConfig cfg;
  cfg.transient_rate = 1.0;
  cfg.faulty_start = false;
  cfg.faulty_read = false;  // only stop() throws
  return cfg;
}

TEST(Measure, WorkloadExceptionWinsOverFlakyStop) {
  SimulatedPmu pmu = quiet_pmu();
  FaultInjectingProvider provider(pmu, stop_always_fails());
  // The workload's exception must propagate even though stop() also
  // throws during cleanup.
  EXPECT_THROW(
      measure(provider, []() -> void { throw std::out_of_range("boom"); }),
      std::out_of_range);
  EXPECT_EQ(provider.stats().stop_calls, 1u);  // cleanup was attempted
}

TEST(ScopedMeasurement, DestructorSwallowsStopFailure) {
  SimulatedPmu pmu = quiet_pmu();
  FaultInjectingProvider flaky(pmu, stop_always_fails());
  try {
    ScopedMeasurement scope(flaky);
    throw std::runtime_error("workload died");
  } catch (const std::runtime_error&) {
  }
  // Reaching here means the unwinding destructor did not let the
  // provider's stop() failure escape (which would std::terminate).
  EXPECT_EQ(flaky.stats().stop_calls, 1u);
}

}  // namespace
}  // namespace sce::hpc
