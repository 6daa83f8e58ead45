// Simple set-associative data TLB model.
#pragma once

#include <cstdint>
#include <vector>

namespace sce::uarch {

struct TlbConfig {
  std::size_t entries = 64;
  std::size_t associativity = 4;
  std::size_t page_bytes = 4096;
};

inline bool operator==(const TlbConfig& a, const TlbConfig& b) {
  return a.entries == b.entries && a.associativity == b.associativity &&
         a.page_bytes == b.page_bytes;
}
inline bool operator!=(const TlbConfig& a, const TlbConfig& b) {
  return !(a == b);
}

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig config = {});

  /// Translate the page containing `address`; returns true on TLB hit.
  bool access(std::uintptr_t address) {
    const std::uintptr_t page = address >> page_shift_;
    const std::size_t set = static_cast<std::size_t>(page) & set_mask_;
    Entry* base = &entries_[set * config_.associativity];
    // Pages are unique within a set, so probing the set's MRU entry first
    // changes only how soon the hit is found, never which entry hits.
    const std::size_t hint = mru_[set];
    if (base[hint].page == page) {
      hit_at(set, hint);
      return true;
    }
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      if (base[i].page == page) {
        hit_at(set, i);
        return true;
      }
    }
    install(base, set, page);
    return false;
  }

  /// A hit on the page held in (`set`, `entry`): everything access() does
  /// when it finds the page there.
  void hit_at(std::size_t set, std::size_t entry) {
    hit_untallied(set, entry);
    ++stats_.accesses;
    ++stats_.hits;
  }

  /// hit_at() without the tally: a caller that counts its own hits adds
  /// them with add_hits() before anyone reads stats().
  void hit_untallied(std::size_t set, std::size_t entry) {
    // A page is held only in an entry touched since the last flush, so
    // the entry mru_ names already carries its set's newest stamp.
    if (entry == mru_[set]) return;
    entries_[set * config_.associativity + entry].stamp = ++tick_;
    mru_[set] = static_cast<std::uint8_t>(entry);
  }

  /// Count `n` hits taken with hit_untallied().
  void add_hits(std::uint64_t n) {
    stats_.accesses += n;
    stats_.hits += n;
  }

  /// Set holding the page of `address`, and the entry touched last in a
  /// set since the last flush: right after an access, the entry that
  /// access hit or filled.  hit_untallied() relies on this.
  std::size_t set_of(std::uintptr_t address) const {
    return static_cast<std::size_t>(address >> page_shift_) & set_mask_;
  }
  std::size_t mru_entry(std::size_t set) const { return mru_[set]; }

  /// Changes whenever a page enters or leaves the TLB (install, flush),
  /// so a page seen at (set, entry) is still there while the generation
  /// is unchanged.
  std::uint64_t generation() const { return generation_; }

  const TlbStats& stats() const { return stats_; }
  const TlbConfig& config() const { return config_; }

  void flush();
  void reset_stats() { stats_ = TlbStats{}; }

 private:
  /// An empty entry holds kNoPage, which no user-space address shifts
  /// down to.
  static constexpr std::uintptr_t kNoPage = ~std::uintptr_t{0};
  struct Entry {
    std::uintptr_t page = kNoPage;
    std::uint64_t stamp = 0;
  };

  /// Miss path: count the access and the miss, and install `page` over
  /// the set's LRU entry.
  void install(Entry* base, std::size_t set, std::uintptr_t page);

  TlbConfig config_;
  TlbStats stats_;
  unsigned page_shift_ = 0;   // log2(page_bytes)
  std::size_t set_mask_ = 0;  // num_sets - 1
  std::vector<Entry> entries_;
  std::vector<std::uint8_t> mru_;  // per set: the entry touched last
                                   // since the last flush, else 0
  std::uint64_t tick_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace sce::uarch
