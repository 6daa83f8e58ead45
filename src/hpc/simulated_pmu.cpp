#include "hpc/simulated_pmu.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sce::hpc {

namespace {
// Base of the canonical frame space; high enough to never collide with
// anything meaningful.
constexpr std::uintptr_t kNormalizedBase = std::uintptr_t{1} << 34;
constexpr std::uintptr_t kPageBits = 12;  // 4 KiB frames
constexpr std::uintptr_t kPageOffsetMask = (std::uintptr_t{1} << kPageBits) - 1;
// Room for a model of up to 256 distinct 4 KiB pages (1 MiB) before the
// page table first grows.
constexpr std::size_t kInitialPageSlots = 512;

// Fibonacci hashing: spreads runs of consecutive page numbers.
std::size_t slot_hash(std::uintptr_t page, std::size_t mask) {
  return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}
}  // namespace

FirstTouchPages::FirstTouchPages() : slots_(kInitialPageSlots) {}

void FirstTouchPages::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::uintptr_t FirstTouchPages::frame_of(std::uintptr_t page) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_hash(page, mask);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.page == page) return slot.frame;
    if (slot.page == kNoPage) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        return frame_of(page);
      }
      slot = Slot{page, size_++};
      return slot.frame;
    }
  }
}

void FirstTouchPages::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.page == kNoPage) continue;
    std::size_t i = slot_hash(slot.page, mask);
    while (slots_[i].page != kNoPage) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

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

SimulatedPmu::SimulatedPmu(SimulatedPmuConfig config)
    : config_(std::move(config)),
      hierarchy_(config_.hierarchy),
      predictor_(uarch::make_predictor(config_.predictor)),
      noise_rng_(config_.noise_seed),
      pollution_rng_(config_.noise_seed ^ 0x901155ULL) {}

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
    pollution_rng_ = util::Rng(
        util::mix64(config_.noise_seed ^ 0x901155ULL, *measurement_key_));
  }
  running_ = true;
  loads_ = 0;
  stores_ = 0;
  retired_ = 0;
  structural_branches_ = 0;
  memory_cycles_ = 0;
  accesses_since_pollution_ = 0;
  hierarchy_.reset_stats();
  predictor_->reset_stats();
  if (config_.cold_start_per_measurement) {
    hierarchy_.flush_all();
    predictor_->flush();
    // A cold start is a fresh process image: the OS hands out frames in
    // first-touch order again.
    page_frames_.clear();
  }
}

void SimulatedPmu::stop() { running_ = false; }

std::uintptr_t SimulatedPmu::normalize(const void* addr) {
  const auto raw = reinterpret_cast<std::uintptr_t>(addr);
  if (trusted_canonical_) return raw;  // replay already normalized
  if (!config_.normalize_addresses) return raw;
  const std::uintptr_t frame = page_frames_.frame_of(raw >> kPageBits);
  return kNormalizedBase + (frame << kPageBits) + (raw & kPageOffsetMask);
}

void SimulatedPmu::data_access(const void* addr, std::size_t bytes,
                               bool is_write) {
  if (!running_) return;
  const auto result = hierarchy_.access(normalize(addr), bytes, is_write);
  memory_cycles_ += result.cycles;
  if (config_.pollution_period != 0) {
    accesses_since_pollution_ += result.lines_touched;
    while (accesses_since_pollution_ >= config_.pollution_period) {
      accesses_since_pollution_ -= config_.pollution_period;
      hierarchy_.pollute(1, pollution_rng_);
    }
  }
}

void SimulatedPmu::load(const void* addr, std::size_t bytes) {
  if (!running_) return;
  ++loads_;
  data_access(addr, bytes, false);
}

void SimulatedPmu::store(const void* addr, std::size_t bytes) {
  if (!running_) return;
  ++stores_;
  data_access(addr, bytes, true);
}

void SimulatedPmu::branch(std::uintptr_t pc, bool taken) {
  if (!running_) return;
  predictor_->resolve(pc, taken);
}

void SimulatedPmu::structural_branches(std::uint64_t n) {
  if (!running_) return;
  // Loop back-edges: counted as retired branches, predicted perfectly by
  // any reasonable predictor after the first iteration.
  structural_branches_ += n;
}

void SimulatedPmu::retire(std::uint64_t n) {
  if (!running_) return;
  retired_ += n;
}

void SimulatedPmu::consume(const uarch::TraceBuffer& trace,
                           uarch::ReplayClass cls) {
  if (!running_)
    throw InvalidArgument(
        "SimulatedPmu::consume: start() the measurement first");
  // The canonical fast path is valid only when this trace is the first
  // memory activity of a cold, normalized measurement: its first-touch
  // ordinals then coincide with what normalize() would assign.
  const bool canonical = config_.cold_start_per_measurement &&
                         config_.normalize_addresses && loads_ == 0 &&
                         stores_ == 0 && page_frames_.empty();
  if (canonical) {
    trusted_canonical_ = true;
    try {
      trace.replay(*this, cls, uarch::ReplayAddressing::kCanonical);
    } catch (...) {
      trusted_canonical_ = false;
      throw;
    }
    trusted_canonical_ = false;
  } else {
    trace.replay(*this, cls, uarch::ReplayAddressing::kSessionStable);
  }
}

CounterSample SimulatedPmu::measure_trace(const uarch::TraceBuffer& trace,
                                          uarch::ReplayClass cls) {
  start();
  consume(trace, cls);
  stop();
  return read();
}

CounterSample SimulatedPmu::workload_counts() const {
  const auto& bp = predictor_->stats();
  ArchCounts counts;
  counts.loads = loads_;
  counts.stores = stores_;
  counts.retired = retired_;
  counts.branches = bp.branches + structural_branches_;
  counts.mispredicts = bp.mispredicts;
  counts.memory_cycles = memory_cycles_;
  counts.llc_references = hierarchy_.last_level_references();
  counts.llc_misses = hierarchy_.last_level_misses();
  return assemble_workload_counts(config_.core, counts);
}

CounterSample SimulatedPmu::read() {
  if (running_)
    throw InvalidArgument("SimulatedPmu::read: stop() the measurement first");
  CounterSample s = workload_counts();
  apply_environment(s, config_.environment, noise_rng_);
  return s;
}

}  // namespace sce::hpc
