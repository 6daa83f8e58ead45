// The simulated machine's recent-line filter changes no count.
//
// A SimulatedMachine skips normalisation and the TLB/L1D probes when a
// line it touched recently is still where it left it.  These tests drive
// a machine and a reference side by side: the reference is a bare
// MemoryHierarchy fed addresses this file normalises itself (first-touch
// 4 KiB frames from TraceBuffer::kCanonicalBase), with the machine's
// pollution stream.  After every measurement the two must agree on
// memory cycles and every cache and TLB counter.  The
// streams repeat lines, fill L1D sets and TLB sets past their ways,
// store, straddle lines and are polluted, so every event that moves a
// line or a page is exercised between repeats.  Addresses are integers
// cast to pointers and never dereferenced.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpc/session.hpp"
#include "hpc/simulated_pmu.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/machine.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/rng.hpp"

namespace sce::uarch {
namespace {

struct Access {
  std::uintptr_t address;
  std::size_t bytes;
  bool is_write;
};

/// Hierarchy plus first-touch normalisation and pollution, written out
/// the long way.
class Reference {
 public:
  explicit Reference(const MachineConfig& config)
      : config_(config),
        hierarchy_(config.hierarchy),
        pollution_(config.pollution_seed) {}

  void begin() {
    hierarchy_.reset_stats();
    cycles_ = 0;
    since_pollution_ = 0;
    if (config_.cold_start_per_measurement) {
      hierarchy_.flush_all();
      frames_.clear();
    }
  }

  /// `canonical` addresses are already normalised (a canonical replay).
  void access(const Access& a, bool canonical = false) {
    std::uintptr_t address = a.address;
    if (!canonical) {
      const auto [it, fresh] =
          frames_.try_emplace(address >> 12, frames_.size());
      address = TraceBuffer::kCanonicalBase + (it->second << 12) +
                (address & 0xfff);
    }
    const AccessResult r = hierarchy_.access(address, a.bytes, a.is_write);
    cycles_ += r.cycles;
    if (config_.pollution_period == 0) return;
    since_pollution_ += r.lines_touched;
    while (since_pollution_ >= config_.pollution_period) {
      since_pollution_ -= config_.pollution_period;
      hierarchy_.pollute(1, pollution_);
    }
  }

  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  std::uint64_t cycles() const { return cycles_; }

 private:
  MachineConfig config_;
  MemoryHierarchy hierarchy_;
  util::Rng pollution_;
  std::unordered_map<std::uintptr_t, std::uintptr_t> frames_;
  std::uint64_t cycles_ = 0;
  std::size_t since_pollution_ = 0;
};

void expect_same(const CacheStats& a, const CacheStats& b, const char* level,
                 const std::string& where) {
  EXPECT_EQ(a.accesses, b.accesses) << level << " " << where;
  EXPECT_EQ(a.hits, b.hits) << level << " " << where;
  EXPECT_EQ(a.misses, b.misses) << level << " " << where;
  EXPECT_EQ(a.evictions, b.evictions) << level << " " << where;
  EXPECT_EQ(a.writebacks, b.writebacks) << level << " " << where;
}

void expect_same(const MemoryHierarchy& machine, std::uint64_t cycles,
                 const Reference& ref, const std::string& where) {
  EXPECT_EQ(cycles, ref.cycles()) << where;
  const MemoryHierarchy& h = ref.hierarchy();
  expect_same(machine.l1d_stats(), h.l1d_stats(), "L1D", where);
  expect_same(machine.l2_stats(), h.l2_stats(), "L2", where);
  expect_same(machine.llc_stats(), h.llc_stats(), "LLC", where);
  EXPECT_EQ(machine.tlb_stats().accesses, h.tlb_stats().accesses) << where;
  EXPECT_EQ(machine.tlb_stats().hits, h.tlb_stats().hits) << where;
  EXPECT_EQ(machine.tlb_stats().misses, h.tlb_stats().misses) << where;
}

/// Kernel-like reuse: a few lines touched over and over, word by word,
/// interleaved with lines at one page offset on many pages (one L1D set
/// with 4 KiB of sets per way) and with pages spread over more TLB sets
/// than the TLB has entries, plus line-straddling accesses and stores.
std::vector<Access> reuse_stream(std::uint64_t seed, std::size_t n,
                                 std::uintptr_t base, std::size_t line) {
  util::Rng rng(seed);
  constexpr std::size_t kPages = 96;
  std::vector<Access> out;
  out.reserve(n + 64);
  std::uintptr_t hot[3];
  for (std::uintptr_t& h : hot)
    h = base + rng.below(kPages) * 4096 + rng.below(4096 / line) * line;
  while (out.size() < n) {
    switch (rng.below(6)) {
      case 0:
      case 1: {  // same-line repeats on the hot lines
        const std::size_t len = 1 + rng.below(12);
        for (std::size_t i = 0; i < len; ++i) {
          const std::uintptr_t h = hot[rng.below(3)];
          out.push_back({h + rng.below(line / 4) * 4, 4, rng.chance(0.3)});
        }
        break;
      }
      case 2: {  // one L1D set, more lines than ways
        const std::uintptr_t offset = rng.below(2) * line;
        const std::size_t len = 2 + rng.below(10);
        for (std::size_t i = 0; i < len; ++i) {
          const std::uintptr_t a =
              base + rng.below(20) * 4096 + offset + rng.below(8) * 4;
          out.push_back({a, 4, rng.chance(0.2)});
          out.push_back({a, 4, false});
        }
        break;
      }
      case 3: {  // a walk across pages, conflicting in every TLB set
        const std::size_t len = 4 + rng.below(20);
        const std::uintptr_t first = rng.below(kPages);
        for (std::size_t i = 0; i < len; ++i)
          out.push_back({base + ((first + 16 * i) % kPages) * 4096 + 64, 8,
                         false});
        break;
      }
      case 4:  // straddles a line boundary, sometimes a page boundary
        out.push_back({base + rng.below(kPages) * 4096 +
                           (rng.chance(0.5) ? 4096 : line) - 2,
                       4, rng.chance(0.5)});
        break;
      default:  // re-aim a hot line
        hot[rng.below(3)] = base + rng.below(kPages) * 4096 +
                            rng.below(4096 / line) * line;
        break;
    }
  }
  out.resize(n);
  return out;
}

void feed(SimulatedMachine& machine, Reference& ref,
          const std::vector<Access>& stream) {
  for (const Access& a : stream) {
    const auto* ptr = reinterpret_cast<const void*>(a.address);
    if (a.is_write)
      machine.store(ptr, a.bytes);
    else
      machine.load(ptr, a.bytes);
    ref.access(a);
  }
}

/// Three measurements of the seeded stream through a machine and the
/// reference, compared after each.
void run_differential(const MachineConfig& config, std::uint64_t seed,
                      const std::string& label) {
  SimulatedMachine machine(config);
  Reference ref(config);
  const std::size_t line = config.hierarchy.l1d.line_bytes < 4096
                               ? config.hierarchy.l1d.line_bytes
                               : 64;
  for (std::uint64_t m = 0; m < 3; ++m) {
    machine.begin_measurement();
    ref.begin();
    feed(machine, ref,
         reuse_stream(seed + m, 6000, 0x7f0000000000 + (m << 20), line));
    machine.end_measurement();
    expect_same(machine.hierarchy(), machine.memory_cycles(), ref,
                label + " measurement " + std::to_string(m));
  }
}

TEST(RecentLines, MatchesReferenceForEveryPolicy) {
  using P = ReplacementPolicy;
  std::uint64_t seed = 1;
  for (P policy : {P::kLru, P::kTreePlru, P::kFifo, P::kRandom}) {
    for (bool prefetch : {false, true}) {
      MachineConfig cold;
      cold.hierarchy.l1d.policy = policy;
      cold.hierarchy.l2.policy = policy;
      cold.hierarchy.enable_next_line_prefetch = prefetch;
      const std::string label =
          to_string(policy) + (prefetch ? " next-line" : " no-prefetch");
      run_differential(cold, seed++, label + " cold");

      MachineConfig warm = cold;
      warm.cold_start_per_measurement = false;
      warm.pollution_period = 1;
      warm.pollution_seed = seed;
      run_differential(warm, seed++, label + " warm, polluted every line");

      // Lower levels small enough that lines leave them between repeats.
      MachineConfig small = warm;
      small.pollution_period = 7;
      small.hierarchy.l2 = {"L2", 4 * 1024, 2, 64, policy};
      small.hierarchy.llc = {"LLC", 8 * 1024, 4, 64, policy};
      run_differential(small, seed++, label + " warm, small L2 and LLC");
    }
  }
}

TEST(RecentLines, LinesLargerThanAPage) {
  // 8 KiB lines span two 4 KiB pages that normalise to unrelated frames,
  // so a raw line no longer names one normalised line.
  MachineConfig big;
  big.hierarchy.l1d = {"L1D", 256 * 1024, 4, 8192, ReplacementPolicy::kLru};
  run_differential(big, 71, "8 KiB lines, cold");
  big.cold_start_per_measurement = false;
  big.pollution_period = 5;
  run_differential(big, 72, "8 KiB lines, warm, polluted");
}

TEST(RecentLines, TlbEvictsAPageWhoseLineStaysInL1d) {
  // 80 pages, one line each in its own L1D set, all resident in L1D,
  // while every TLB set holds four of its five pages.  Touching a line,
  // then the four other pages of its TLB set, evicts the line's page
  // from the TLB with no L1D install in between; the line's next touch
  // must miss the TLB.
  MachineConfig config;
  SimulatedMachine machine(config);
  Reference ref(config);
  // Raw pages 2p + p/64 keep the six lines of a group in distinct
  // filter slots; first-touch normalisation numbers them p.
  const auto line_of = [](std::uintptr_t p) -> Access {
    return {0x7f0000000000 + (2 * p + p / 64) * 4096 + (p % 64) * 64, 4,
            false};
  };
  std::vector<Access> stream;
  for (int round = 0; round < 2; ++round)
    for (std::uintptr_t p = 0; p < 80; ++p) stream.push_back(line_of(p));
  for (std::uintptr_t p = 0; p < 16; ++p) {
    for (std::uintptr_t k = 0; k < 5; ++k)
      stream.push_back(line_of(p + 16 * k));
    stream.push_back(line_of(p));
  }
  machine.begin_measurement();
  ref.begin();
  feed(machine, ref, stream);
  machine.end_measurement();
  expect_same(machine.hierarchy(), machine.memory_cycles(), ref,
              "tlb thrash over resident lines");
  EXPECT_EQ(machine.hierarchy().l1d_stats().misses, 80u);
  EXPECT_GT(machine.hierarchy().tlb_stats().misses, 160u);
}

TEST(RecentLines, HitTalliesSettleAtEndOfMeasurement) {
  // Filter hits reach the L1D and TLB statistics and memory_cycles() when
  // a measurement ends, however it ends, and only once.
  const std::vector<Access> stream =
      reuse_stream(91, 4000, 0x7f0000000000, 64);
  {
    hpc::SimulatedPmu pmu;
    Reference ref(MachineConfig{});  // the PMU's hierarchy and defaults
    ref.begin();
    EXPECT_THROW(hpc::measure(pmu,
                              [&] {
                                feed(pmu, ref, stream);
                                throw std::runtime_error("kernel fault");
                              }),
                 std::runtime_error);
    EXPECT_FALSE(pmu.running());
    expect_same(pmu.hierarchy(), pmu.memory_cycles(), ref,
                "stopped from the exception path");
  }

  MachineConfig warm;
  warm.cold_start_per_measurement = false;
  warm.pollution_period = 13;
  warm.pollution_seed = 92;
  SimulatedMachine machine(warm);
  Reference ref(warm);
  const auto measure = [&](const std::vector<Access>& accesses) {
    machine.begin_measurement();
    ref.begin();
    feed(machine, ref, accesses);
    machine.end_measurement();
  };

  measure(stream);
  measure({});
  expect_same(machine.hierarchy(), machine.memory_cycles(), ref,
              "no memory events");
  EXPECT_EQ(machine.hierarchy().l1d_stats().accesses, 0u);

  measure(stream);
  machine.end_measurement();
  expect_same(machine.hierarchy(), machine.memory_cycles(), ref,
              "ended twice");

  machine.begin_measurement();
  ref.begin();
  feed(machine, ref, stream);
  measure(reuse_stream(93, 4000, 0x7f0000000000, 64));
  expect_same(machine.hierarchy(), machine.memory_cycles(), ref,
              "begun again before the last one ended");
}

/// Collects the addresses a trace replays.
class Collector final : public TraceSink {
 public:
  void load(const void* addr, std::size_t bytes) override {
    add(addr, bytes, false);
  }
  void store(const void* addr, std::size_t bytes) override {
    add(addr, bytes, true);
  }
  void branch(std::uintptr_t, bool) override {}
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}

  std::vector<Access> accesses;

 private:
  void add(const void* addr, std::size_t bytes, bool is_write) {
    accesses.push_back(
        {reinterpret_cast<std::uintptr_t>(addr), bytes, is_write});
  }
};

TEST(RecentLines, CanonicalReplayBetweenLiveAccesses) {
  // A canonical replay feeds addresses past normalisation.  Live raw
  // pointers inside the canonical range then name other lines than the
  // replayed ones, so nothing the replay left in the filter may serve
  // them.
  hpc::SimulatedPmu pmu;
  Reference ref(MachineConfig{});  // the PMU's hierarchy and defaults

  const std::uintptr_t canonical = TraceBuffer::kCanonicalBase;
  const std::vector<Access> recorded =
      reuse_stream(81, 3000, 0x7f0000000000, 64);
  TraceBuffer trace;
  for (const Access& a : recorded) {
    const auto* ptr = reinterpret_cast<const void*>(a.address);
    if (a.is_write)
      trace.store(ptr, a.bytes);
    else
      trace.load(ptr, a.bytes);
  }
  Collector replayed;
  trace.replay(replayed, ReplayClass::kMemory, ReplayAddressing::kCanonical);

  // Live pointers onto the lines the replay touched, newest first: the
  // first live page gets frame 0, so normalisation moves every line the
  // replay left in the filter.
  const std::vector<Access> live(replayed.accesses.rbegin(),
                                 replayed.accesses.rend());
  ASSERT_GE(live.front().address, canonical);

  const auto live_measurement = [&](const std::string& where) {
    pmu.start();
    ref.begin();
    feed(pmu, ref, live);
    pmu.stop();
    expect_same(pmu.hierarchy(), pmu.memory_cycles(), ref, where);
  };
  const auto replay_into_ref = [&] {
    for (const Access& a : replayed.accesses) ref.access(a, true);
  };

  live_measurement("live before");

  pmu.start();
  ref.begin();
  pmu.consume(trace, ReplayClass::kMemory);
  replay_into_ref();
  feed(pmu, ref, live);
  pmu.stop();
  expect_same(pmu.hierarchy(), pmu.memory_cycles(), ref,
              "live after a replay, same measurement");

  (void)pmu.measure_trace(trace, ReplayClass::kMemory);
  ref.begin();
  replay_into_ref();
  expect_same(pmu.hierarchy(), pmu.memory_cycles(), ref, "measure_trace");

  live_measurement("live after");
}

}  // namespace
}  // namespace sce::uarch
