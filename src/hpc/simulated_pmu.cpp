#include "hpc/simulated_pmu.hpp"

#include <cmath>

#include "util/error.hpp"

namespace sce::hpc {

std::array<EnvironmentSpec, kNumEvents>
SimulatedPmuConfig::default_environment() {
  // Scaled (~1/1000) from the paper's Fig. 2(b) perf dump of one MNIST
  // classification under TensorFlow:
  //   branches 2.27e9, branch-misses 6.25e7, bus-cycles 6.20e8,
  //   cache-misses 8.36e6, cache-references 6.34e7, cycles 1.62e10,
  //   instructions 1.21e10, ref-cycles 1.60e10.
  // Noise magnitudes set the t-value regimes (see file comment).
  std::array<EnvironmentSpec, kNumEvents> env{};
  env[static_cast<std::size_t>(HpcEvent::kBranches)] = {2.0e6, 5000.0};
  env[static_cast<std::size_t>(HpcEvent::kBranchMisses)] = {6.0e4, 600.0};
  env[static_cast<std::size_t>(HpcEvent::kBusCycles)] = {6.0e5, 2000.0};
  env[static_cast<std::size_t>(HpcEvent::kCacheMisses)] = {7.0e3, 8.0};
  env[static_cast<std::size_t>(HpcEvent::kCacheReferences)] = {5.5e4, 800.0};
  env[static_cast<std::size_t>(HpcEvent::kCycles)] = {1.4e7, 5.0e4};
  env[static_cast<std::size_t>(HpcEvent::kInstructions)] = {1.0e7, 2.0e4};
  env[static_cast<std::size_t>(HpcEvent::kRefCycles)] = {1.38e7, 5.0e4};
  return env;
}

std::array<EnvironmentSpec, kNumEvents>
SimulatedPmuConfig::large_workload_environment() {
  // ~2.4x the default workload runtime: bases and jitter scale with the
  // time the framework/OS spends around the classification.
  std::array<EnvironmentSpec, kNumEvents> env{};
  env[static_cast<std::size_t>(HpcEvent::kBranches)] = {4.8e6, 26000.0};
  env[static_cast<std::size_t>(HpcEvent::kBranchMisses)] = {1.4e5, 1500.0};
  env[static_cast<std::size_t>(HpcEvent::kBusCycles)] = {1.4e6, 5000.0};
  env[static_cast<std::size_t>(HpcEvent::kCacheMisses)] = {1.7e4, 120.0};
  env[static_cast<std::size_t>(HpcEvent::kCacheReferences)] = {1.3e5, 2000.0};
  env[static_cast<std::size_t>(HpcEvent::kCycles)] = {3.4e7, 1.2e5};
  env[static_cast<std::size_t>(HpcEvent::kInstructions)] = {2.4e7, 5.0e4};
  env[static_cast<std::size_t>(HpcEvent::kRefCycles)] = {3.3e7, 1.2e5};
  return env;
}

std::array<EnvironmentSpec, kNumEvents>
SimulatedPmuConfig::no_environment() {
  return {};
}

bool SimulatedPmuConfig::workload_counts_are_pure() const {
  for (const uarch::CacheConfig* level :
       {&hierarchy.l1d, &hierarchy.l2, &hierarchy.llc})
    if (level->policy == uarch::ReplacementPolicy::kRandom) return false;
  return cold_start_per_measurement && pollution_period == 0;
}

CounterSample assemble_workload_counts(const uarch::CoreModelConfig& core,
                                       const ArchCounts& counts) {
  CounterSample s;
  const std::uint64_t instructions =
      counts.loads + counts.stores + counts.branches + counts.retired;
  uarch::CoreCounts cc;
  cc.instructions = instructions;
  cc.memory_cycles = counts.memory_cycles;
  cc.mispredicts = counts.mispredicts;
  const uarch::DerivedCycles cycles = derive_cycles(core, cc);

  s[HpcEvent::kBranches] = counts.branches;
  s[HpcEvent::kBranchMisses] = counts.mispredicts;
  s[HpcEvent::kBusCycles] = cycles.bus_cycles;
  s[HpcEvent::kCacheMisses] = counts.llc_misses;
  s[HpcEvent::kCacheReferences] = counts.llc_references;
  s[HpcEvent::kCycles] = cycles.cycles;
  s[HpcEvent::kInstructions] = instructions;
  s[HpcEvent::kRefCycles] = cycles.ref_cycles;
  return s;
}

void apply_environment(CounterSample& sample,
                       const std::array<EnvironmentSpec, kNumEvents>& specs,
                       util::Rng& rng) {
  for (HpcEvent e : all_events()) {
    const auto& env = specs[static_cast<std::size_t>(e)];
    if (env.base == 0.0 && env.stddev == 0.0) continue;
    const double extra = rng.normal(env.base, env.stddev);
    if (extra > 0.0)
      sample[e] += static_cast<std::uint64_t>(std::llround(extra));
  }
}

namespace {
constexpr std::uint64_t kPollutionStream = 0x901155ULL;

uarch::MachineConfig machine_config(const SimulatedPmuConfig& c) {
  uarch::MachineConfig m;
  m.hierarchy = c.hierarchy;
  m.predictor = c.predictor;
  m.cold_start_per_measurement = c.cold_start_per_measurement;
  m.pollution_period = c.pollution_period;
  m.pollution_seed = c.noise_seed ^ kPollutionStream;
  return m;
}
}  // namespace

SimulatedPmu::SimulatedPmu(SimulatedPmuConfig config)
    : uarch::SimulatedMachine(machine_config(config)),
      config_(std::move(config)),
      noise_rng_(config_.noise_seed) {}

std::vector<HpcEvent> SimulatedPmu::supported_events() const {
  return {all_events().begin(), all_events().end()};
}

bool SimulatedPmu::set_measurement_key(std::uint64_t key) {
  measurement_key_ = key;
  return true;
}

void SimulatedPmu::start() {
  if (measurement_key_) {
    noise_rng_ = util::Rng(util::mix64(config_.noise_seed, *measurement_key_));
    reseed_pollution(util::mix64(config_.noise_seed ^ kPollutionStream,
                                 *measurement_key_));
  }
  begin_measurement();
}

void SimulatedPmu::stop() { end_measurement(); }

void SimulatedPmu::consume(const uarch::TraceBuffer& trace,
                           uarch::ReplayClass cls) {
  if (!running())
    throw InvalidArgument(
        "SimulatedPmu::consume: start() the measurement first");
  // The canonical fast path is valid only when this trace is the first
  // memory activity of a cold measurement: its first-touch ordinals then
  // coincide with what normalize() would assign.
  const bool canonical = config_.cold_start_per_measurement && untouched();
  if (canonical)
    replay_canonical(trace, cls);
  else
    trace.replay(*this, cls, uarch::ReplayAddressing::kSessionStable);
}

CounterSample SimulatedPmu::measure_trace(const uarch::TraceBuffer& trace,
                                          uarch::ReplayClass cls) {
  start();
  consume(trace, cls);
  stop();
  return read();
}

CounterSample SimulatedPmu::workload_counts() const {
  const auto& bp = predictor().stats();
  ArchCounts counts;
  counts.loads = loads();
  counts.stores = stores();
  counts.retired = retired();
  counts.branches = bp.branches + structural_branch_count();
  counts.mispredicts = bp.mispredicts;
  counts.memory_cycles = memory_cycles();
  counts.llc_references = hierarchy().last_level_references();
  counts.llc_misses = hierarchy().last_level_misses();
  return assemble_workload_counts(config_.core, counts);
}

CounterSample SimulatedPmu::read_keyed(CounterSample workload,
                                       std::uint64_t key) const {
  util::Rng rng(util::mix64(config_.noise_seed, key));
  apply_environment(workload, config_.environment, rng);
  return workload;
}

CounterSample SimulatedPmu::read() {
  if (running())
    throw InvalidArgument("SimulatedPmu::read: stop() the measurement first");
  CounterSample s = workload_counts();
  apply_environment(s, config_.environment, noise_rng_);
  return s;
}

}  // namespace sce::hpc
