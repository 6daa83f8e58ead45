// Data-TLB and three-level data-cache hierarchy with an optional
// next-line prefetcher.
//
// Mirrors the structure behind the perf events the paper monitors:
//   cache-references  = accesses that reach the last-level cache
//   cache-misses      = last-level cache misses
// Each byte-ranged access is decomposed into line-granular accesses that
// look up the TLB and walk L1D -> L2 -> LLC.
#pragma once

#include <cstdint>

#include "uarch/cache.hpp"
#include "uarch/tlb.hpp"
#include "util/error.hpp"

namespace sce::uarch {

struct HierarchyConfig {
  CacheConfig l1d{"L1D", 32 * 1024, 8, 64, ReplacementPolicy::kTreePlru};
  CacheConfig l2{"L2", 256 * 1024, 8, 64, ReplacementPolicy::kLru};
  CacheConfig llc{"LLC", 2 * 1024 * 1024, 16, 64, ReplacementPolicy::kLru};
  /// Next-line prefetch into L2 on an L1 miss.
  bool enable_next_line_prefetch = false;
  TlbConfig tlb{};
  /// Miss latencies in cycles, used by the core event model.
  std::uint32_t l1_hit_cycles = 4;
  std::uint32_t l2_hit_cycles = 12;
  std::uint32_t llc_hit_cycles = 40;
  std::uint32_t memory_cycles = 200;
  std::uint32_t tlb_miss_cycles = 30;
};

/// Field-wise equality: two hierarchies with equal configs produce
/// identical counts from identical access sequences (the sweep engine's
/// deduplication criterion).
inline bool operator==(const HierarchyConfig& a, const HierarchyConfig& b) {
  return a.l1d == b.l1d && a.l2 == b.l2 && a.llc == b.llc &&
         a.enable_next_line_prefetch == b.enable_next_line_prefetch &&
         a.tlb == b.tlb && a.l1_hit_cycles == b.l1_hit_cycles &&
         a.l2_hit_cycles == b.l2_hit_cycles &&
         a.llc_hit_cycles == b.llc_hit_cycles &&
         a.memory_cycles == b.memory_cycles &&
         a.tlb_miss_cycles == b.tlb_miss_cycles;
}
inline bool operator!=(const HierarchyConfig& a, const HierarchyConfig& b) {
  return !(a == b);
}

struct AccessResult {
  /// Cycles this access contributed (latency model, not overlap-aware).
  std::uint64_t cycles = 0;
  /// Number of line-granular accesses the byte range decomposed into.
  std::uint32_t lines_touched = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(HierarchyConfig config = {},
                           std::uint64_t rng_seed = 11);

  const HierarchyConfig& config() const { return config_; }

  /// Perform a data access covering [addr, addr + bytes).  The TLB and
  /// L1D hit path is defined here so callers can inline it; an L1D miss
  /// continues out of line in miss_below_l1().
  AccessResult access(std::uintptr_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0)
      throw InvalidArgument("MemoryHierarchy::access: zero bytes");
    const std::uintptr_t first = addr >> line_shift_;
    const std::uintptr_t last = (addr + bytes - 1) >> line_shift_;
    AccessResult total;
    for (std::uintptr_t l = first; l <= last; ++l) {
      const std::uintptr_t line_addr = l << line_shift_;
      ++total.lines_touched;
      if (!tlb_.access(line_addr)) total.cycles += config_.tlb_miss_cycles;
      total.cycles += l1d_.access(line_addr, is_write)
                          ? config_.l1_hit_cycles
                          : miss_below_l1(line_addr, is_write);
    }
    return total;
  }

  const CacheStats& l1d_stats() const { return l1d_.stats(); }
  const CacheStats& l2_stats() const { return l2_.stats(); }
  const CacheStats& llc_stats() const { return llc_.stats(); }
  const TlbStats& tlb_stats() const { return tlb_.stats(); }

  CacheLevel& l1d() { return l1d_; }
  Tlb& tlb() { return tlb_; }

  /// References that reached the LLC (perf cache-references).
  std::uint64_t last_level_references() const {
    return llc_.stats().accesses;
  }
  /// LLC misses (perf cache-misses).
  std::uint64_t last_level_misses() const { return llc_.stats().misses; }

  /// Changes whenever a line enters or leaves L1D or a page enters or
  /// leaves the TLB: while it is unchanged, a line stays at the L1D way
  /// and its page at the TLB entry where an access last found them.
  std::uint64_t residency() const {
    return l1d_.generation() + tlb_.generation();
  }

  /// Invalidate all levels (cold start).
  void flush_all();
  /// Evict `n` random lines from every level (cache pollution by other
  /// processes sharing the machine).
  void pollute(std::size_t n, util::Rng& rng);

  void reset_stats();

 private:
  /// Latency of a line that missed L1D: run the next-line prefetcher,
  /// then look the line up in L2, the LLC and memory.
  std::uint64_t miss_below_l1(std::uintptr_t line_addr, bool is_write);

  HierarchyConfig config_;
  unsigned line_shift_ = 0;  // log2(l1d.line_bytes)
  CacheLevel l1d_;
  CacheLevel l2_;
  CacheLevel llc_;
  Tlb tlb_;
};

}  // namespace sce::uarch
