#include "uarch/machine.hpp"

#include <algorithm>
#include <bit>

namespace sce::uarch {

namespace {
// Room for a model of up to 256 distinct 4 KiB pages (1 MiB) before the
// page table first grows.
constexpr std::size_t kInitialPageSlots = 512;
}  // namespace

FirstTouchPages::FirstTouchPages() : slots_(kInitialPageSlots) {}

void FirstTouchPages::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::uintptr_t FirstTouchPages::assign(std::uintptr_t page, std::size_t i) {
  if (2 * (size_ + 1) > slots_.size()) {
    grow();
    return frame_of(page);
  }
  slots_[i] = Slot{page, size_++};
  return slots_[i].frame;
}

void FirstTouchPages::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.page == kNoPage) continue;
    std::size_t i = slot_hash(slot.page, mask);
    while (slots_[i].page != kNoPage) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

SimulatedMachine::SimulatedMachine(const MachineConfig& config)
    : config_(config),
      hierarchy_(config_.hierarchy),
      predictor_(make_predictor(config_.predictor)),
      pollution_rng_(config_.pollution_seed),
      line_shift_(static_cast<unsigned>(
          std::countr_zero(config_.hierarchy.l1d.line_bytes))),
      line_bytes_(config_.hierarchy.l1d.line_bytes),
      recent_lines_usable_(line_bytes_ <= (std::uintptr_t{1} << kPageBits)) {}

void SimulatedMachine::begin_measurement() {
  running_ = true;
  loads_ = 0;
  stores_ = 0;
  retired_ = 0;
  structural_branches_ = 0;
  memory_cycles_ = 0;
  filter_hits_ = 0;
  accesses_since_pollution_ = 0;
  forget_recent_lines();
  hierarchy_.reset_stats();
  predictor_->reset_stats();
  if (config_.cold_start_per_measurement) {
    hierarchy_.flush_all();
    predictor_->flush();
    // A cold start is a fresh process image: the OS hands out frames in
    // first-touch order again.
    page_frames_.clear();
  }
}

void SimulatedMachine::end_measurement() {
  running_ = false;
  // Each filter hit is a TLB hit and an L1D hit at L1 latency, exactly
  // what MemoryHierarchy::access counts.
  hierarchy_.l1d().add_hits(filter_hits_);
  hierarchy_.tlb().add_hits(filter_hits_);
  memory_cycles_ += filter_hits_ * config_.hierarchy.l1_hit_cycles;
  filter_hits_ = 0;
}

void SimulatedMachine::replay_canonical(const TraceBuffer& trace,
                                        ReplayClass cls) {
  // Canonical addresses bypass normalize(), so a raw line means another
  // normalized line inside the replay than outside it.
  forget_recent_lines();
  trusted_canonical_ = true;
  try {
    trace.replay(*this, cls, ReplayAddressing::kCanonical);
  } catch (...) {
    trusted_canonical_ = false;
    forget_recent_lines();
    throw;
  }
  trusted_canonical_ = false;
  forget_recent_lines();
}

void SimulatedMachine::full_access(const void* addr, std::size_t bytes,
                                   bool is_write, RecentLine* recent) {
  const std::uintptr_t normalized = normalize(addr);
  const AccessResult result = hierarchy_.access(normalized, bytes, is_write);
  if (recent != nullptr && recent_lines_usable_) {
    recent->line = reinterpret_cast<std::uintptr_t>(addr) >> line_shift_;
    recent->residency = hierarchy_.residency();
    const std::uintptr_t line_addr = (normalized >> line_shift_)
                                     << line_shift_;
    const CacheLevel& l1d = hierarchy_.l1d();
    recent->l1d_set = static_cast<std::uint32_t>(l1d.set_of(line_addr));
    recent->l1d_way = static_cast<std::uint8_t>(l1d.mru_way(recent->l1d_set));
    const Tlb& tlb = hierarchy_.tlb();
    recent->tlb_set = static_cast<std::uint32_t>(tlb.set_of(line_addr));
    recent->tlb_entry =
        static_cast<std::uint8_t>(tlb.mru_entry(recent->tlb_set));
  }
  memory_cycles_ += result.cycles;
  if (config_.pollution_period != 0) pollute(result.lines_touched);
}

void SimulatedMachine::pollute(std::uint32_t lines) {
  accesses_since_pollution_ += lines;
  while (accesses_since_pollution_ >= config_.pollution_period) {
    accesses_since_pollution_ -= config_.pollution_period;
    hierarchy_.pollute(1, pollution_rng_);
  }
}

}  // namespace sce::uarch
