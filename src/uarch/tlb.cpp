#include "uarch/tlb.hpp"

#include <bit>

#include "util/error.hpp"

namespace sce::uarch {

namespace {
// The per-set MRU hint is one byte; sets are capped at 64 entries, as
// the caches' are.
constexpr std::size_t kMaxAssociativity = 64;

bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Tlb::Tlb(TlbConfig config) : config_(config) {
  if (config_.associativity == 0 || config_.entries == 0)
    throw InvalidArgument("Tlb: entries and associativity must be positive");
  if (config_.associativity > kMaxAssociativity)
    throw InvalidArgument("Tlb: associativity > 64 unsupported");
  if (config_.entries % config_.associativity != 0)
    throw InvalidArgument("Tlb: entries must be a multiple of associativity");
  if (!is_power_of_two(config_.page_bytes))
    throw InvalidArgument("Tlb: page size must be a power of two");
  const std::size_t sets = config_.entries / config_.associativity;
  if (!is_power_of_two(sets))
    throw InvalidArgument("Tlb: set count must be a power of two");
  page_shift_ = static_cast<unsigned>(std::countr_zero(config_.page_bytes));
  set_mask_ = sets - 1;
  entries_.assign(config_.entries, Entry{});
  mru_.assign(sets, 0);
}

void Tlb::install(Entry* base, std::size_t set, std::uintptr_t page) {
  ++stats_.accesses;
  ++stats_.misses;
  ++generation_;
  // LRU replacement within the set; invalid entries first.
  std::size_t victim = 0;
  for (std::size_t i = 0; i < config_.associativity; ++i) {
    if (base[i].page == kNoPage) {
      victim = i;
      break;
    }
    if (base[i].stamp < base[victim].stamp) victim = i;
  }
  base[victim] = Entry{page, ++tick_};
  mru_[set] = static_cast<std::uint8_t>(victim);
}

void Tlb::flush() {
  for (Entry& e : entries_) e = Entry{};
  for (std::uint8_t& m : mru_) m = 0;
  ++generation_;
}

}  // namespace sce::uarch
