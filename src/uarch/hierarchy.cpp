#include "uarch/hierarchy.hpp"

#include <bit>

namespace sce::uarch {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      line_shift_(static_cast<unsigned>(
          std::countr_zero(config_.l1d.line_bytes))),
      l1d_(config_.l1d, seed),  // rejects a line size that is not 2^k
      tlb_(config_.tlb),
      stride_prefetcher_(config_.stride_prefetcher) {
  if (config_.enable_l2)
    l2_ = std::make_unique<CacheLevel>(config_.l2, seed + 1);
  if (config_.enable_llc)
    llc_ = std::make_unique<CacheLevel>(config_.llc, seed + 2);
  prefetch_targets_.reserve(config_.stride_prefetcher.degree);
}

const CacheStats& MemoryHierarchy::l2_stats() const {
  return l2_ ? l2_->stats() : empty_stats_;
}

const CacheStats& MemoryHierarchy::llc_stats() const {
  return llc_ ? llc_->stats() : empty_stats_;
}

std::uint64_t MemoryHierarchy::miss_below_l1(std::uintptr_t line_addr,
                                             bool is_write) {
  if (config_.enable_next_line_prefetch && l2_) {
    // Fetch the next line into L2 (and LLC) without charging latency.
    const std::uintptr_t next = line_addr + config_.l1d.line_bytes;
    if (!l2_->access(next, false) && llc_) llc_->access(next, false);
  }
  if (config_.enable_stride_prefetch && l2_) {
    // The L2 streamer trains on demand misses and pulls predicted lines
    // into L2/LLC without charging demand latency.
    stride_prefetcher_.observe_miss(line_addr, prefetch_targets_);
    for (std::uintptr_t target : prefetch_targets_) {
      if (!l2_->access(target, false) && llc_) llc_->access(target, false);
    }
  }
  if (l2_ && l2_->access(line_addr, is_write)) return config_.l2_hit_cycles;
  if (llc_ && llc_->access(line_addr, is_write))
    return config_.llc_hit_cycles;
  return config_.memory_cycles;
}

std::uint64_t MemoryHierarchy::last_level_references() const {
  if (llc_) return llc_->stats().accesses;
  if (l2_) return l2_->stats().accesses;
  return l1d_.stats().accesses;
}

std::uint64_t MemoryHierarchy::last_level_misses() const {
  if (llc_) return llc_->stats().misses;
  if (l2_) return l2_->stats().misses;
  return l1d_.stats().misses;
}

void MemoryHierarchy::flush_all() {
  l1d_.flush();
  if (l2_) l2_->flush();
  if (llc_) llc_->flush();
  tlb_.flush();
  stride_prefetcher_.flush();
}

void MemoryHierarchy::pollute(std::size_t n, util::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    l1d_.evict_random_line(rng);
    if (l2_) l2_->evict_random_line(rng);
    if (llc_) llc_->evict_random_line(rng);
  }
}

void MemoryHierarchy::reset_stats() {
  l1d_.reset_stats();
  if (l2_) l2_->reset_stats();
  if (llc_) llc_->reset_stats();
  tlb_.reset_stats();
}

}  // namespace sce::uarch
