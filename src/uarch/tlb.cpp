#include "uarch/tlb.hpp"

#include <bit>

#include "util/error.hpp"

namespace sce::uarch {

namespace {
bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Tlb::Tlb(TlbConfig config) : config_(config) {
  if (config_.associativity == 0 || config_.entries == 0)
    throw InvalidArgument("Tlb: entries and associativity must be positive");
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
}

void Tlb::install(Entry* set, std::uintptr_t page) {
  ++stats_.misses;
  // LRU replacement within the set; invalid entries first.
  std::size_t victim = 0;
  for (std::size_t i = 0; i < config_.associativity; ++i) {
    if (!set[i].valid) {
      victim = i;
      break;
    }
    if (set[i].stamp < set[victim].stamp) victim = i;
  }
  set[victim] = Entry{page, true, ++tick_};
}

void Tlb::flush() {
  for (Entry& e : entries_) e = Entry{};
}

}  // namespace sce::uarch
