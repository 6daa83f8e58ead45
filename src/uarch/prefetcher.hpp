// Stream/stride prefetcher.
//
// Tracks recent miss streams and, once a constant line-stride repeats
// with enough confidence, predicts the next lines of the stream.  This is
// the mechanism (an L2 "streamer") that hides much of a dense kernel's
// compulsory-miss latency on real parts — and, for the side-channel
// story, a structure whose training is itself data-dependent.
#pragma once

#include <cstdint>
#include <vector>

namespace sce::uarch {

struct PrefetcherConfig {
  /// Number of concurrently tracked streams.
  std::size_t streams = 8;
  /// Strides observed before the stream issues prefetches.
  std::uint32_t confidence_threshold = 2;
  /// Lines fetched ahead once confident.
  std::uint32_t degree = 2;
  std::size_t line_bytes = 64;
};

inline bool operator==(const PrefetcherConfig& a, const PrefetcherConfig& b) {
  return a.streams == b.streams &&
         a.confidence_threshold == b.confidence_threshold &&
         a.degree == b.degree && a.line_bytes == b.line_bytes;
}
inline bool operator!=(const PrefetcherConfig& a, const PrefetcherConfig& b) {
  return !(a == b);
}

struct PrefetcherStats {
  std::uint64_t trained = 0;    ///< miss observations fed in
  std::uint64_t issued = 0;     ///< prefetch lines issued
};

class StridePrefetcher {
 public:
  explicit StridePrefetcher(PrefetcherConfig config = {});

  /// Observe a demand miss at `address`; replaces the contents of
  /// `targets` with the line-aligned addresses to prefetch (none while
  /// the stream is still training).  Callers keep one buffer across
  /// calls, so a steady stream of misses does not allocate.
  void observe_miss(std::uintptr_t address,
                    std::vector<std::uintptr_t>& targets);

  const PrefetcherStats& stats() const { return stats_; }
  void flush();
  const PrefetcherConfig& config() const { return config_; }

 private:
  struct Stream {
    std::uintptr_t last_line = 0;
    std::intptr_t stride = 0;
    std::uint32_t confidence = 0;
    bool valid = false;
    std::uint64_t last_used = 0;
  };

  PrefetcherConfig config_;
  PrefetcherStats stats_;
  unsigned line_shift_ = 0;  // log2(line_bytes)
  std::vector<Stream> streams_;
  std::uint64_t tick_ = 0;
};

}  // namespace sce::uarch
