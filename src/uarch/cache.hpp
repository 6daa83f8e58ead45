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

  std::size_t num_sets() const {
    return size_bytes / (associativity * line_bytes);
  }
};

/// Field-wise equality, used by the sweep engine to deduplicate grid
/// points that share a cache geometry.
inline bool operator==(const CacheConfig& a, const CacheConfig& b) {
  return a.name == b.name && a.size_bytes == b.size_bytes &&
         a.associativity == b.associativity && a.line_bytes == b.line_bytes &&
         a.policy == b.policy;
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
    const std::uintptr_t line = address >> line_shift_;
    const std::size_t set = static_cast<std::size_t>(line) & set_mask_;
    // Tags are unique within a set, so probing the set's MRU way first
    // changes only how soon the hit is found, never which way hits.
    const std::size_t hint = mru_[set];
    if (tags_[set * assoc_ + hint] == line) {
      hit_at(set, hint, is_write);
      return true;
    }
    return access_after_probe(set, line, is_write);
  }

  /// A hit on the line resident in (`set`, `way`): everything access()
  /// does when it finds the line there.
  void hit_at(std::size_t set, std::size_t way, bool is_write) {
    hit_untallied(set, way, is_write);
    ++stats_.accesses;
    ++stats_.hits;
  }

  /// hit_at() without the tally: a caller that counts its own hits adds
  /// them with add_hits() before anyone reads stats().
  void hit_untallied(std::size_t set, std::size_t way, bool is_write) {
    // A line is resident only in a way touched since the last flush, so
    // a hit on the way mru_ names is a hit on the set's most recently
    // used way.  Touching it again would leave the tree-PLRU bits as
    // they are and keep LRU's order within the set.
    if (way != mru_[set]) touch(set, way);
    if (is_write) dirty_[set] |= std::uint64_t{1} << way;
  }

  /// Count `n` hits taken with hit_untallied().
  void add_hits(std::uint64_t n) {
    stats_.accesses += n;
    stats_.hits += n;
  }

  /// Set holding the line of `address`, and the way touched last in a
  /// set since the last flush: right after an access, the way that
  /// access hit or filled.  hit_untallied() relies on this.
  std::size_t set_of(std::uintptr_t address) const {
    return static_cast<std::size_t>(address >> line_shift_) & set_mask_;
  }
  std::size_t mru_way(std::size_t set) const { return mru_[set]; }

  /// Changes whenever a line enters or leaves the cache (install,
  /// eviction, flush), so a line seen at (set, way) is still there while
  /// the generation is unchanged.
  std::uint64_t generation() const { return generation_; }

  /// Probe without updating state or stats (for tests/inspection).
  bool contains(std::uintptr_t address) const;

  /// Invalidate everything (models a cold start / context switch flush).
  void flush();

  /// Evict one random resident line if any (models interference from other
  /// processes sharing the cache).
  void evict_random_line(util::Rng& rng);

  void reset_stats() { stats_ = CacheStats{}; }

 private:
  /// An empty way holds kNoLine, which no user-space address shifts down
  /// to.
  static constexpr std::uintptr_t kNoLine = ~std::uintptr_t{0};

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
        stamps_[set * assoc_ + way] = ++tick_;
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
  // Per way, num_sets * associativity in set order: the line's tag and
  // its LRU/FIFO stamp.  An 8-way set's tags fill one 64-byte line.
  std::vector<std::uintptr_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint64_t> dirty_;   // per set: one dirty bit per way
  std::vector<std::uint8_t> mru_;      // per set: the way touched last
                                       // since the last flush, else 0
  std::vector<std::uint64_t> plru_;    // one PLRU tree bitmask per set
  std::vector<std::uint64_t> plru_set_;    // per way: promotion's set bits
  std::vector<std::uint64_t> plru_clear_;  // per way: its cleared bits
  std::uint64_t tick_ = 0;
  std::uint64_t generation_ = 0;
  util::Rng rng_;
};

}  // namespace sce::uarch
