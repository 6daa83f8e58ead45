// The simulated machine: the per-event half of the simulated PMU.
//
// A SimulatedMachine is the TraceSink the instrumented kernels stream
// into.  It owns the state every event touches — the first-touch page
// table, the memory hierarchy, the configured branch predictor, the
// running flag, the architectural tallies and co-tenant pollution — and
// nothing a measurement needs only at its edges (keys, the environment
// overlay, reads), which hpc::SimulatedPmu adds on top.
//
// Its TraceSink overrides are final and defined here, so a kernel
// instantiated over this concrete type (nn/kernels/domain.hpp) inlines
// every load, store and branch: no event makes a virtual call, and the
// predictor is reached through its concrete final type.  A load or
// store of a line touched moments ago, still where it was, is a TLB and
// L1D hit taken in line (the recent-line filter) and tallied when the
// measurement ends; any other access continues out of line.  Through a
// TraceSink& the same overrides run behind one virtual call, with
// identical results.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "uarch/branch_predictor.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/trace.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/rng.hpp"

namespace sce::uarch {

/// First-touch page numbering behind address normalisation: the n-th
/// distinct page looked up since the last clear() gets frame n.  A flat
/// open-addressed table whose storage survives clear(), so a cold start
/// does not allocate once the table has grown to the workload's page
/// count.
class FirstTouchPages {
 public:
  FirstTouchPages();

  /// Frame of `page`, assigning the next free frame on first touch.
  std::uintptr_t frame_of(std::uintptr_t page) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_hash(page, mask);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.page == page) return slot.frame;
      if (slot.page == kNoPage) return assign(page, i);
    }
  }

  bool empty() const { return size_ == 0; }
  void clear();

 private:
  static constexpr std::uintptr_t kNoPage = ~std::uintptr_t{0};
  struct Slot {
    std::uintptr_t page = kNoPage;
    std::uintptr_t frame = 0;
  };

  // Fibonacci hashing: spreads runs of consecutive page numbers.
  static std::size_t slot_hash(std::uintptr_t page, std::size_t mask) {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask;
  }

  /// First touch of `page`, whose probe ended at the empty slot `i`.
  std::uintptr_t assign(std::uintptr_t page, std::size_t i);
  void grow();

  std::vector<Slot> slots_;  // size is a power of two, at most half full
  std::size_t size_ = 0;
};

/// How a SimulatedMachine treats each measurement (see SimulatedPmuConfig,
/// which documents each field).
struct MachineConfig {
  HierarchyConfig hierarchy{};
  PredictorKind predictor = PredictorKind::kGShare;
  bool cold_start_per_measurement = true;
  std::size_t pollution_period = 0;
  std::uint64_t pollution_seed = 0;
};

class SimulatedMachine : public TraceSink {
 public:
  explicit SimulatedMachine(const MachineConfig& config);

  // --- TraceSink (fed by the instrumented kernels) ---
  [[gnu::always_inline]] void load(const void* addr,
                                   std::size_t bytes) final {
    if (!running_) return;
    ++loads_;
    data_access(addr, bytes, false);
  }
  [[gnu::always_inline]] void store(const void* addr,
                                    std::size_t bytes) final {
    if (!running_) return;
    ++stores_;
    data_access(addr, bytes, true);
  }
  void branch(std::uintptr_t pc, bool taken) final {
    if (!running_) return;
    switch (config_.predictor) {
      case PredictorKind::kStaticTaken:
        return resolve_with<StaticTakenPredictor>(pc, taken);
      case PredictorKind::kBimodal:
        return resolve_with<BimodalPredictor>(pc, taken);
      case PredictorKind::kGShare:
        return resolve_with<GSharePredictor>(pc, taken);
      case PredictorKind::kTwoLevelLocal:
        return resolve_with<TwoLevelLocalPredictor>(pc, taken);
    }
  }
  void structural_branches(std::uint64_t n) final {
    // Loop back-edges: counted as retired branches, predicted perfectly
    // by any reasonable predictor after the first iteration.
    if (running_) structural_branches_ += n;
  }
  void retire(std::uint64_t n) final {
    if (running_) retired_ += n;
  }

  /// Open a measurement: zero the tallies and statistics, and on a cold
  /// start flush every structure and the page table.
  void begin_measurement();
  /// Close the measurement and settle the recent-line filter's hits into
  /// the L1D and TLB statistics and memory_cycles().  Closing twice
  /// counts them once.
  void end_measurement();
  bool running() const { return running_; }

  /// Reseed the pollution stream (a keyed measurement's own stream).
  void reseed_pollution(std::uint64_t seed) {
    pollution_rng_ = util::Rng(seed);
  }

  // Tallies of the current/last measurement.
  std::uint64_t loads() const { return loads_; }
  std::uint64_t stores() const { return stores_; }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t structural_branch_count() const {
    return structural_branches_;
  }
  /// Hierarchy latency accumulated by the last measurement (the
  /// memory_cycles input to the core event model); exact once it ended.
  std::uint64_t memory_cycles() const { return memory_cycles_; }

  /// The hierarchy and its statistics.  Recent-line filter hits reach
  /// the L1D and TLB statistics only at end_measurement(), so those are
  /// exact once a measurement has ended.
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  BranchPredictor& predictor() { return *predictor_; }
  const BranchPredictor& predictor() const { return *predictor_; }

 protected:
  /// True while no memory event has reached this measurement and the
  /// page table is empty: a canonical trace's first-touch ordinals then
  /// coincide with what normalize() would assign.
  bool untouched() const {
    return loads_ == 0 && stores_ == 0 && page_frames_.empty();
  }
  /// Replay `trace` at its canonical addresses, which already are the
  /// normalized form, so normalize() passes them through.  Valid only
  /// while untouched() in a cold measurement.
  void replay_canonical(const TraceBuffer& trace, ReplayClass cls);

 private:
  static constexpr unsigned kPageBits = 12;  // 4 KiB frames
  static constexpr std::uintptr_t kPageOffsetMask =
      (std::uintptr_t{1} << kPageBits) - 1;

  /// The recent-line filter: a direct-mapped table, keyed by the raw
  /// (un-normalized) line address, of where each line sat in the TLB and
  /// L1D after its last full access.  While residency() is unchanged the
  /// line is still there, so touching it again is a hit at that spot and
  /// skips normalize() and both probes.  Raw lines map to normalized
  /// lines one to one only while the page table is kept and L1D lines
  /// fit in a 4 KiB page, so the table is cleared with every measurement
  /// and around canonical replay, and unused for larger lines.  256
  /// entries hold the 30-60 lines a zoo kernel keeps live with few
  /// conflicts; 64 lost every seventh touch on the CIFAR model.
  static constexpr std::size_t kRecentLines = 256;
  static constexpr std::uintptr_t kNoLine = ~std::uintptr_t{0};
  struct RecentLine {
    std::uintptr_t line = kNoLine;
    std::uint64_t residency = 0;
    std::uint32_t l1d_set = 0;
    std::uint32_t tlb_set = 0;
    std::uint8_t l1d_way = 0;
    std::uint8_t tlb_entry = 0;
  };

  template <typename P>
  void resolve_with(std::uintptr_t pc, bool taken) {
    BranchPredictor::resolve_as(static_cast<P&>(*predictor_), pc, taken);
  }

  std::uintptr_t normalize(const void* addr) {
    const auto raw = reinterpret_cast<std::uintptr_t>(addr);
    if (trusted_canonical_) return raw;
    // The canonical base a replayed trace's addresses start from, so a
    // replay that skips this step lands on the same normalized addresses.
    const std::uintptr_t frame = page_frames_.frame_of(raw >> kPageBits);
    return TraceBuffer::kCanonicalBase + (frame << kPageBits) +
           (raw & kPageOffsetMask);
  }

  /// A filter hit is handled here, inlined into the kernel's access even
  /// where GCC's size heuristics would make it a call; anything else
  /// takes the full path out of line.
  [[gnu::always_inline]] void data_access(const void* addr,
                                          std::size_t bytes, bool is_write) {
    const auto raw = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t line = raw >> line_shift_;
    RecentLine& recent = recent_[line & (kRecentLines - 1)];
    // Within one L1D line; an empty access wraps bytes - 1 and takes the
    // full path, which rejects it.
    const bool one_line =
        bytes - 1 < line_bytes_ - (raw & (line_bytes_ - 1));
    if (recent.line == line && one_line &&
        recent.residency == hierarchy_.residency()) {
      hierarchy_.tlb().hit_untallied(recent.tlb_set, recent.tlb_entry);
      hierarchy_.l1d().hit_untallied(recent.l1d_set, recent.l1d_way,
                                     is_write);
      ++filter_hits_;  // counted at end_measurement()
      if (config_.pollution_period != 0) pollute(1);
      return;
    }
    full_access(addr, bytes, is_write, one_line ? &recent : nullptr);
  }

  /// Normalize and walk the hierarchy; then, for a one-line access, refill
  /// `recent` from the L1D way and TLB entry the access left as their
  /// sets' MRU.
  void full_access(const void* addr, std::size_t bytes, bool is_write,
                   RecentLine* recent);

  void forget_recent_lines() { recent_.fill(RecentLine{}); }

  /// Co-tenant interference: one random line out of every level per
  /// `pollution_period` line accesses.
  void pollute(std::uint32_t lines);

  MachineConfig config_;
  MemoryHierarchy hierarchy_;
  /// Made by make_predictor(config_.predictor), so its dynamic type is
  /// the one branch() casts to.
  std::unique_ptr<BranchPredictor> predictor_;
  util::Rng pollution_rng_;

  unsigned line_shift_ = 0;       // log2(L1D line bytes)
  std::uintptr_t line_bytes_ = 0;
  bool recent_lines_usable_ = false;

  bool running_ = false;
  /// Set while replay_canonical() runs.
  bool trusted_canonical_ = false;
  FirstTouchPages page_frames_;
  std::size_t accesses_since_pollution_ = 0;

  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t structural_branches_ = 0;
  std::uint64_t memory_cycles_ = 0;
  /// Recent-line filter hits not yet settled into the statistics.
  std::uint64_t filter_hits_ = 0;

  std::array<RecentLine, kRecentLines> recent_{};
};

}  // namespace sce::uarch
