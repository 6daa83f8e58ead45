#include "uarch/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace sce::uarch {

std::string to_string(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kTreePlru:
      return "tree-plru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

namespace {
bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

CacheLevel::CacheLevel(CacheConfig config, std::uint64_t rng_seed)
    : config_(std::move(config)), rng_(rng_seed) {
  if (!is_power_of_two(config_.line_bytes))
    throw InvalidArgument("CacheLevel: line size must be a power of two");
  if (config_.associativity == 0)
    throw InvalidArgument("CacheLevel: associativity must be positive");
  if (config_.size_bytes %
          (config_.associativity * config_.line_bytes) !=
      0)
    throw InvalidArgument(
        "CacheLevel: size must be a multiple of associativity * line size");
  const std::size_t sets = config_.num_sets();
  if (!is_power_of_two(sets))
    throw InvalidArgument("CacheLevel: number of sets must be a power of two");
  if (config_.associativity > 64)
    throw InvalidArgument("CacheLevel: associativity > 64 unsupported");
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  set_mask_ = sets - 1;
  assoc_ = config_.associativity;
  tags_.assign(sets * assoc_, kNoLine);
  stamps_.assign(sets * assoc_, 0);
  dirty_.assign(sets, 0);
  mru_.assign(sets, 0);
  plru_.assign(sets, 0);
  // Tree-PLRU promotion of `way`: walk from the root to the leaf, pointing
  // each node away from the path taken (bit set = right, i.e. the left
  // half was used more recently).  The walk depends only on the way, so
  // record which bits it sets and clears once.
  plru_set_.assign(assoc_, 0);
  plru_clear_.assign(assoc_, 0);
  for (std::size_t way = 0; way < assoc_; ++way) {
    std::size_t node = 0;
    std::size_t lo = 0;
    std::size_t hi = assoc_;
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (way < mid) {
        plru_set_[way] |= std::uint64_t{1} << node;
        hi = mid;
        node = 2 * node + 1;
      } else {
        plru_clear_[way] |= std::uint64_t{1} << node;
        lo = mid;
        node = 2 * node + 2;
      }
    }
  }
}

std::size_t CacheLevel::choose_victim(std::size_t set) {
  const std::size_t assoc = assoc_;
  const std::uintptr_t* tags = &tags_[set * assoc];
  // Prefer an empty way regardless of policy.
  for (std::size_t i = 0; i < assoc; ++i)
    if (tags[i] == kNoLine) return i;
  switch (config_.policy) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo: {
      const std::uint64_t* stamps = &stamps_[set * assoc];
      std::size_t victim = 0;
      for (std::size_t i = 1; i < assoc; ++i)
        if (stamps[i] < stamps[victim]) victim = i;
      return victim;
    }
    case ReplacementPolicy::kTreePlru: {
      // Convention: bit set means the left half was used more recently, so
      // the victim search descends right; bit clear descends left.  touch()
      // maintains the same convention.
      const std::uint64_t bits = plru_[set];
      std::size_t node = 0;
      std::size_t lo = 0;
      std::size_t hi = assoc;
      while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        if (bits & (std::uint64_t{1} << node)) {
          lo = mid;  // bit set -> victim on the right
          node = 2 * node + 2;
        } else {
          hi = mid;  // bit clear -> victim on the left
          node = 2 * node + 1;
        }
      }
      return lo;
    }
    case ReplacementPolicy::kRandom:
      return static_cast<std::size_t>(rng_.below(assoc));
  }
  return 0;
}

bool CacheLevel::access_after_probe(std::size_t set, std::uintptr_t line,
                                    bool is_write) {
  const std::uintptr_t* tags = &tags_[set * assoc_];
  for (std::size_t i = 0; i < assoc_; ++i) {
    if (tags[i] == line) {
      hit_at(set, i, is_write);
      return true;
    }
  }
  ++stats_.accesses;
  ++stats_.misses;
  ++generation_;
  const std::size_t victim = choose_victim(set);
  const std::size_t slot = set * assoc_ + victim;
  const std::uint64_t bit = std::uint64_t{1} << victim;
  if (tags_[slot] != kNoLine) {
    ++stats_.evictions;
    if (dirty_[set] & bit) ++stats_.writebacks;
  }
  tags_[slot] = line;
  dirty_[set] = is_write ? dirty_[set] | bit : dirty_[set] & ~bit;
  stamps_[slot] = ++tick_;  // install time (LRU and FIFO both stamp here)
  touch(set, victim);
  return false;
}

bool CacheLevel::contains(std::uintptr_t address) const {
  const std::uintptr_t line = address >> line_shift_;
  const std::uintptr_t* tags = &tags_[set_of(address) * assoc_];
  for (std::size_t i = 0; i < assoc_; ++i)
    if (tags[i] == line) return true;
  return false;
}

void CacheLevel::flush() {
  std::fill(tags_.begin(), tags_.end(), kNoLine);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(plru_.begin(), plru_.end(), 0);
  std::fill(mru_.begin(), mru_.end(), 0);
  ++generation_;
}

void CacheLevel::evict_random_line(util::Rng& rng) {
  // Pick a random set, then a random way; if it holds a line, drop it
  // (models a co-tenant displacing a line).
  const std::size_t set = static_cast<std::size_t>(rng.below(set_mask_ + 1));
  const std::size_t way = static_cast<std::size_t>(rng.below(assoc_));
  std::uintptr_t& tag = tags_[set * assoc_ + way];
  if (tag != kNoLine) {
    tag = kNoLine;
    dirty_[set] &= ~(std::uint64_t{1} << way);
    ++generation_;
  }
}

}  // namespace sce::uarch
