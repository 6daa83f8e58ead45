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
    ++stats_.accesses;
    const std::uintptr_t page = address >> page_shift_;
    Entry* base =
        &entries_[(static_cast<std::size_t>(page) & set_mask_) *
                  config_.associativity];
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      if (base[i].valid && base[i].page == page) {
        ++stats_.hits;
        base[i].stamp = ++tick_;
        return true;
      }
    }
    install(base, page);
    return false;
  }

  const TlbStats& stats() const { return stats_; }
  const TlbConfig& config() const { return config_; }

  void flush();
  void reset_stats() { stats_ = TlbStats{}; }

 private:
  struct Entry {
    std::uintptr_t page = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  /// Miss path: count the miss and install `page` over the set's LRU
  /// entry.
  void install(Entry* set, std::uintptr_t page);

  TlbConfig config_;
  TlbStats stats_;
  unsigned page_shift_ = 0;   // log2(page_bytes)
  std::size_t set_mask_ = 0;  // num_sets - 1
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

}  // namespace sce::uarch
