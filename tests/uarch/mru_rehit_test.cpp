// An access repeated at once changes nothing but the hit count.
//
// The repeat hits the cache way or TLB entry its first access just
// touched, which its set already names as most recently used.  Touching
// that way again must leave every later replacement decision alone: the
// same victims, evictions, writebacks and TLB misses, with exactly one
// more hit per repeated access.  Co-tenant evictions and flushes at fixed
// positions empty the most recently used way now and then, so the
// streams also install into the way the MRU byte names.  The property
// holds for any model that keeps its replacement order within a set, so
// it pins behaviour, not an implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "uarch/cache.hpp"
#include "uarch/tlb.hpp"
#include "util/rng.hpp"

namespace sce::uarch {
namespace {

struct Access {
  std::uintptr_t address;
  bool is_write;
};

/// A seeded mix of reuse and conflict: a few hot granules (lines or
/// pages), runs through one set with more granules than it has ways,
/// and random granules over a footprint of 512, many times what the
/// structure holds.
std::vector<Access> address_stream(std::uint64_t seed, std::size_t n,
                                   std::uintptr_t granule,
                                   std::uintptr_t set_stride) {
  util::Rng rng(seed);
  const std::uintptr_t base = 0x10000000;
  std::vector<Access> out;
  out.reserve(n);
  std::uintptr_t hot[4];
  for (std::uintptr_t& h : hot) h = base + rng.below(512) * granule;
  while (out.size() < n) {
    switch (rng.below(4)) {
      case 0:
        out.push_back({hot[rng.below(4)] + rng.below(granule),
                       rng.chance(0.3)});
        break;
      case 1: {
        const std::uintptr_t set = rng.below(set_stride / granule);
        for (std::size_t i = 0, len = 2 + rng.below(12); i < len; ++i)
          out.push_back({base + set * granule + rng.below(12) * set_stride,
                         rng.chance(0.3)});
        break;
      }
      case 2:
        out.push_back({base + rng.below(512) * granule, rng.chance(0.3)});
        break;
      default:
        hot[rng.below(4)] = base + rng.below(512) * granule;
        break;
    }
  }
  out.resize(n);
  return out;
}

/// Feed `stream` to `access`, each element `times` times in a row, with
/// an eviction every 17 accesses and a flush at a third and two thirds.
template <typename AccessFn, typename EvictFn, typename FlushFn>
void feed(const std::vector<Access>& stream, int times, AccessFn access,
          EvictFn evict, FlushFn flush) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 17 == 5) evict();
    if (i == stream.size() / 3 || i == 2 * stream.size() / 3) flush();
    for (int k = 0; k < times; ++k) access(stream[i]);
  }
}

CacheStats run_cache(ReplacementPolicy policy, std::size_t ways,
                     const std::vector<Access>& stream, int times) {
  // 4 KiB: `ways` ways of 64-byte lines.
  CacheLevel cache({"L1", 4096, ways, 64, policy}, 5);
  util::Rng co_tenant(99);
  feed(
      stream, times,
      [&](const Access& a) { (void)cache.access(a.address, a.is_write); },
      [&] { cache.evict_random_line(co_tenant); }, [&] { cache.flush(); });
  return cache.stats();
}

TEST(MruRehit, CacheRepeatsOnlyAddHits) {
  using P = ReplacementPolicy;
  std::uint64_t seed = 1;
  for (P policy : {P::kLru, P::kTreePlru, P::kFifo, P::kRandom}) {
    for (std::size_t ways : {4, 8}) {
      const std::string where =
          to_string(policy) + " " + std::to_string(ways) + "-way";
      const std::vector<Access> stream =
          address_stream(seed++, 20000, 64, 4096 / ways);
      const CacheStats once = run_cache(policy, ways, stream, 1);
      const CacheStats twice = run_cache(policy, ways, stream, 2);
      // The stream must reach every counter the property is about.
      EXPECT_GT(once.hits, 0u) << where;
      EXPECT_GT(once.evictions, 0u) << where;
      EXPECT_GT(once.writebacks, 0u) << where;
      EXPECT_EQ(twice.misses, once.misses) << where;
      EXPECT_EQ(twice.evictions, once.evictions) << where;
      EXPECT_EQ(twice.writebacks, once.writebacks) << where;
      EXPECT_EQ(twice.hits, once.hits + stream.size()) << where;
      EXPECT_EQ(twice.accesses, 2 * once.accesses) << where;
    }
  }
}

TlbStats run_tlb(const std::vector<Access>& stream, int times) {
  // 16 entries, 4 sets of 4.
  Tlb tlb({16, 4, 4096});
  // The TLB has no co-tenant eviction; an extra page in the set of the
  // page touched last stands in for one, so the next touch of that set
  // installs again.
  std::uintptr_t last = 0;
  feed(
      stream, times,
      [&](const Access& a) {
        last = a.address;
        (void)tlb.access(a.address);
      },
      [&] { (void)tlb.access(last + 16 * 4096 * 37); }, [&] { tlb.flush(); });
  return tlb.stats();
}

TEST(MruRehit, TlbRepeatsOnlyAddHits) {
  const std::vector<Access> stream =
      address_stream(41, 20000, 4096, 4 * 4096);
  const TlbStats once = run_tlb(stream, 1);
  const TlbStats twice = run_tlb(stream, 2);
  EXPECT_GT(once.hits, 0u);
  EXPECT_GT(once.misses, 0u);
  EXPECT_EQ(twice.misses, once.misses);
  EXPECT_EQ(twice.hits, once.hits + stream.size());
  EXPECT_EQ(twice.accesses, once.accesses + stream.size());
}

}  // namespace
}  // namespace sce::uarch
