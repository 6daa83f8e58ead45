#include "uarch/machine.hpp"

#include <algorithm>

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
      pollution_rng_(config_.pollution_seed) {}

void SimulatedMachine::begin_measurement() {
  running_ = true;
  loads_ = 0;
  stores_ = 0;
  retired_ = 0;
  structural_branches_ = 0;
  memory_cycles_ = 0;
  accesses_since_pollution_ = 0;
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

void SimulatedMachine::replay_canonical(const TraceBuffer& trace,
                                        ReplayClass cls) {
  trusted_canonical_ = true;
  try {
    trace.replay(*this, cls, ReplayAddressing::kCanonical);
  } catch (...) {
    trusted_canonical_ = false;
    throw;
  }
  trusted_canonical_ = false;
}

void SimulatedMachine::pollute(std::uint32_t lines) {
  accesses_since_pollution_ += lines;
  while (accesses_since_pollution_ >= config_.pollution_period) {
    accesses_since_pollution_ -= config_.pollution_period;
    hierarchy_.pollute(1, pollution_rng_);
  }
}

}  // namespace sce::uarch
