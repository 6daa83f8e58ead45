#include "uarch/prefetcher.hpp"

#include <bit>
#include <cstdlib>

#include "util/error.hpp"

namespace sce::uarch {

StridePrefetcher::StridePrefetcher(PrefetcherConfig config)
    : config_(config) {
  if (config_.streams == 0)
    throw InvalidArgument("StridePrefetcher: need at least one stream");
  if (config_.line_bytes == 0 ||
      (config_.line_bytes & (config_.line_bytes - 1)) != 0)
    throw InvalidArgument("StridePrefetcher: line size must be power of two");
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  streams_.assign(config_.streams, Stream{});
}

void StridePrefetcher::observe_miss(std::uintptr_t address,
                                    std::vector<std::uintptr_t>& targets) {
  targets.clear();
  ++stats_.trained;
  ++tick_;
  const std::uintptr_t line = address >> line_shift_;

  // Find the stream whose extrapolation this miss continues: either one
  // line after its last access, or matching its learned stride.
  Stream* match = nullptr;
  for (Stream& s : streams_) {
    if (!s.valid) continue;
    const std::intptr_t delta = static_cast<std::intptr_t>(line) -
                                static_cast<std::intptr_t>(s.last_line);
    if (delta == 0) continue;
    if ((s.confidence > 0 && delta == s.stride) ||
        (s.confidence == 0 && std::abs(static_cast<long long>(delta)) <= 4)) {
      match = &s;
      break;
    }
  }

  if (match != nullptr) {
    const std::intptr_t delta = static_cast<std::intptr_t>(line) -
                                static_cast<std::intptr_t>(match->last_line);
    if (match->confidence > 0 && delta == match->stride) {
      ++match->confidence;
    } else {
      match->stride = delta;
      match->confidence = 1;
    }
    match->last_line = line;
    match->last_used = tick_;
    if (match->confidence >= config_.confidence_threshold) {
      for (std::uint32_t k = 1; k <= config_.degree; ++k) {
        const std::intptr_t target =
            static_cast<std::intptr_t>(line) +
            match->stride * static_cast<std::intptr_t>(k);
        if (target <= 0) continue;
        targets.push_back(static_cast<std::uintptr_t>(target)
                          << line_shift_);
      }
      stats_.issued += targets.size();
    }
    return;
  }

  // Allocate a stream (LRU victim) to start tracking this address.
  Stream* victim = &streams_[0];
  for (Stream& s : streams_) {
    if (!s.valid) {
      victim = &s;
      break;
    }
    if (s.last_used < victim->last_used) victim = &s;
  }
  *victim = Stream{line, 0, 0, true, tick_};
}

void StridePrefetcher::flush() {
  for (Stream& s : streams_) s = Stream{};
  tick_ = 0;
}

}  // namespace sce::uarch
