#include "uarch/hierarchy.hpp"

#include <bit>

namespace sce::uarch {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      line_shift_(static_cast<unsigned>(
          std::countr_zero(config_.l1d.line_bytes))),
      l1d_(config_.l1d, seed),  // rejects a line size that is not 2^k
      l2_(config_.l2, seed + 1),
      llc_(config_.llc, seed + 2),
      tlb_(config_.tlb) {}

std::uint64_t MemoryHierarchy::miss_below_l1(std::uintptr_t line_addr,
                                             bool is_write) {
  if (config_.enable_next_line_prefetch) {
    // Fetch the next line into L2 (and LLC) without charging latency.
    const std::uintptr_t next = line_addr + config_.l1d.line_bytes;
    if (!l2_.access(next, false)) llc_.access(next, false);
  }
  if (l2_.access(line_addr, is_write)) return config_.l2_hit_cycles;
  if (llc_.access(line_addr, is_write)) return config_.llc_hit_cycles;
  return config_.memory_cycles;
}

void MemoryHierarchy::flush_all() {
  l1d_.flush();
  l2_.flush();
  llc_.flush();
  tlb_.flush();
}

void MemoryHierarchy::pollute(std::size_t n, util::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    l1d_.evict_random_line(rng);
    l2_.evict_random_line(rng);
    llc_.evict_random_line(rng);
  }
}

void MemoryHierarchy::reset_stats() {
  l1d_.reset_stats();
  l2_.reset_stats();
  llc_.reset_stats();
  tlb_.reset_stats();
}

}  // namespace sce::uarch
