// Set-associative cache model with pluggable replacement policies.
//
// One CacheLevel models a single level (L1D, L2, LLC).  The model tracks
// tags only — no data — which is all that is needed to count references,
// hits and misses.  Replacement policies implemented: true LRU, tree-PLRU
// (the policy used by most Intel L1/L2 caches), FIFO and random.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sce::uarch {

enum class ReplacementPolicy { kLru, kTreePlru, kFifo, kRandom };

std::string to_string(ReplacementPolicy policy);

struct CacheConfig {
  std::string name = "cache";
  std::size_t size_bytes = 32 * 1024;
  std::size_t associativity = 8;
  std::size_t line_bytes = 64;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
  /// Way-partitioning (Intel CAT style): the first `protected_ways` ways
  /// of every set are reserved for the measured process — co-tenant
  /// evictions (evict_random_line) cannot touch them.  0 disables
  /// partitioning.  The process's own replacement is unaffected.
  std::size_t protected_ways = 0;

  std::size_t num_sets() const {
    return size_bytes / (associativity * line_bytes);
  }
};

/// Field-wise equality, used by the sweep engine to deduplicate grid
/// points that share a cache geometry.
inline bool operator==(const CacheConfig& a, const CacheConfig& b) {
  return a.name == b.name && a.size_bytes == b.size_bytes &&
         a.associativity == b.associativity && a.line_bytes == b.line_bytes &&
         a.policy == b.policy && a.protected_ways == b.protected_ways;
}
inline bool operator!=(const CacheConfig& a, const CacheConfig& b) {
  return !(a == b);
}

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

class CacheLevel {
 public:
  explicit CacheLevel(CacheConfig config, std::uint64_t rng_seed = 7);

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

  /// Access the line containing `line_address` (an address already shifted
  /// to line granularity is not required; any byte address works).
  /// Returns true on hit.  On miss the line is installed, possibly
  /// evicting another.
  bool access(std::uintptr_t address, bool is_write) {
    ++stats_.accesses;
    const std::uintptr_t line = address >> line_shift_;
    const std::size_t set = static_cast<std::size_t>(line) & set_mask_;
    // Tags are unique within a set, so probing the set's MRU way first
    // changes only how soon the hit is found, never which way hits.
    const std::size_t hint = mru_[set];
    Way& w = ways_[set * assoc_ + hint];
    if (w.valid && w.tag == line) {
      ++stats_.hits;
      if (is_write) w.dirty = true;
      touch(set, hint);
      return true;
    }
    return access_after_probe(set, line, is_write);
  }

  /// Probe without updating state or stats (for tests/inspection).
  bool contains(std::uintptr_t address) const;

  /// Invalidate everything (models a cold start / context switch flush).
  void flush();

  /// Evict one random resident line if any (models interference from other
  /// processes sharing the cache).
  void evict_random_line(util::Rng& rng);

  void reset_stats() { stats_ = CacheStats{}; }

 private:
  struct Way {
    std::uintptr_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_stamp = 0;   // for kLru / kFifo
  };

  /// The rest of access() once the MRU probe missed: scan the set, and on
  /// a miss install the line over a victim.
  bool access_after_probe(std::size_t set, std::uintptr_t line,
                          bool is_write);
  std::size_t choose_victim(std::size_t set);

  /// Replacement-state update for a hit on or an install into `way`.
  void touch(std::size_t set, std::size_t way) {
    mru_[set] = static_cast<std::uint8_t>(way);
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
        ways_[set * assoc_ + way].lru_stamp = ++tick_;
        break;
      case ReplacementPolicy::kTreePlru:
        // The classic promotion walk from the root points every node on
        // the path away from `way`; plru_set_/plru_clear_ hold the bits
        // that walk sets and clears.
        plru_[set] = (plru_[set] | plru_set_[way]) & ~plru_clear_[way];
        break;
      case ReplacementPolicy::kFifo:    // stamped at install time only
      case ReplacementPolicy::kRandom:
        break;
    }
  }

  CacheConfig config_;
  CacheStats stats_;
  unsigned line_shift_ = 0;            // log2(line_bytes)
  std::size_t set_mask_ = 0;           // num_sets - 1
  std::size_t assoc_ = 0;
  std::vector<Way> ways_;              // num_sets * associativity
  std::vector<std::uint8_t> mru_;      // per set: the way touched last
  std::vector<std::uint64_t> plru_;    // one PLRU tree bitmask per set
  std::vector<std::uint64_t> plru_set_;    // per way: promotion's set bits
  std::vector<std::uint64_t> plru_clear_;  // per way: its cleared bits
  std::uint64_t tick_ = 0;
  util::Rng rng_;
};

}  // namespace sce::uarch
