#include "uarch/cache.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace sce::uarch {
namespace {

CacheConfig small_cache(ReplacementPolicy policy = ReplacementPolicy::kLru) {
  // 4 sets x 2 ways x 64B lines = 512 B.
  CacheConfig cfg;
  cfg.name = "test";
  cfg.size_bytes = 512;
  cfg.associativity = 2;
  cfg.line_bytes = 64;
  cfg.policy = policy;
  return cfg;
}

// Address helper: set index s, tag t (for 4 sets, 64B lines).
std::uintptr_t addr(std::uintptr_t set, std::uintptr_t tag) {
  return (tag * 4 + set) * 64;
}

TEST(CacheLevel, ColdMissThenHit) {
  CacheLevel cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000, false));
  EXPECT_TRUE(cache.access(0x1000, false));
  EXPECT_TRUE(cache.access(0x1010, false));  // same line
  EXPECT_EQ(cache.stats().accesses, 3u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheLevel, DistinctLinesMiss) {
  CacheLevel cache(small_cache());
  EXPECT_FALSE(cache.access(0x0, false));
  EXPECT_FALSE(cache.access(64, false));
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheLevel, NumSets) {
  EXPECT_EQ(small_cache().num_sets(), 4u);
  CacheConfig l1{"L1", 32 * 1024, 8, 64, ReplacementPolicy::kLru};
  EXPECT_EQ(l1.num_sets(), 64u);
}

TEST(CacheLevel, LruEvictsLeastRecentlyUsed) {
  CacheLevel cache(small_cache(ReplacementPolicy::kLru));
  cache.access(addr(0, 1), false);  // way A
  cache.access(addr(0, 2), false);  // way B
  cache.access(addr(0, 1), false);  // touch A -> B is LRU
  cache.access(addr(0, 3), false);  // evicts B
  EXPECT_TRUE(cache.contains(addr(0, 1)));
  EXPECT_FALSE(cache.contains(addr(0, 2)));
  EXPECT_TRUE(cache.contains(addr(0, 3)));
}

TEST(CacheLevel, FifoIgnoresTouches) {
  CacheLevel cache(small_cache(ReplacementPolicy::kFifo));
  cache.access(addr(0, 1), false);  // inserted first
  cache.access(addr(0, 2), false);
  cache.access(addr(0, 1), false);  // touch does not refresh FIFO order
  cache.access(addr(0, 3), false);  // evicts tag 1 (oldest insert)
  EXPECT_FALSE(cache.contains(addr(0, 1)));
  EXPECT_TRUE(cache.contains(addr(0, 2)));
  EXPECT_TRUE(cache.contains(addr(0, 3)));
}

TEST(CacheLevel, TreePlruEvictsColdPath) {
  // 1 set x 4 ways.
  CacheConfig cfg;
  cfg.size_bytes = 4 * 64;
  cfg.associativity = 4;
  cfg.line_bytes = 64;
  cfg.policy = ReplacementPolicy::kTreePlru;
  CacheLevel cache(cfg);
  // Fill ways with lines 0..3 (same set; tags differ).
  for (std::uintptr_t t = 0; t < 4; ++t) cache.access(t * 64, false);
  // Touch lines 0 and 1 (left half) -> PLRU victim must be on the right.
  cache.access(0 * 64, false);
  cache.access(1 * 64, false);
  cache.access(4 * 64, false);  // new line: must evict way 2 or 3
  EXPECT_TRUE(cache.contains(0 * 64));
  EXPECT_TRUE(cache.contains(1 * 64));
  EXPECT_TRUE(cache.contains(4 * 64));
}

TEST(CacheLevel, RandomPolicyIsDeterministicGivenSeed) {
  CacheLevel a(small_cache(ReplacementPolicy::kRandom), 42);
  CacheLevel b(small_cache(ReplacementPolicy::kRandom), 42);
  for (std::uintptr_t t = 0; t < 50; ++t) {
    EXPECT_EQ(a.access(addr(0, t), false), b.access(addr(0, t), false));
  }
  for (std::uintptr_t t = 0; t < 50; ++t)
    EXPECT_EQ(a.contains(addr(0, t)), b.contains(addr(0, t)));
}

TEST(CacheLevel, ContainsDoesNotPerturb) {
  CacheLevel cache(small_cache());
  cache.access(0x0, false);
  const CacheStats before = cache.stats();
  EXPECT_TRUE(cache.contains(0x0));
  EXPECT_FALSE(cache.contains(0x4000));
  EXPECT_EQ(cache.stats().accesses, before.accesses);
}

TEST(CacheLevel, FlushInvalidatesAll) {
  CacheLevel cache(small_cache());
  cache.access(0x0, false);
  cache.access(0x40, false);
  cache.flush();
  EXPECT_FALSE(cache.contains(0x0));
  EXPECT_FALSE(cache.contains(0x40));
  // Stats survive the flush.
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheLevel, WritebackOnDirtyEviction) {
  CacheLevel cache(small_cache());
  cache.access(addr(0, 1), true);   // dirty
  cache.access(addr(0, 2), false);  // clean
  cache.access(addr(0, 3), false);  // evicts tag 1 (LRU, dirty)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().writebacks, 1u);
  cache.access(addr(0, 4), false);  // evicts tag 2 (clean)
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheLevel, WriteHitMarksDirty) {
  CacheLevel cache(small_cache());
  cache.access(addr(0, 1), false);  // clean install
  cache.access(addr(0, 1), true);   // dirtied by write hit
  cache.access(addr(0, 2), false);
  cache.access(addr(0, 3), false);  // evicts tag 1
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheLevel, EvictRandomLineRemovesSomething) {
  CacheLevel cache(small_cache());
  for (std::uintptr_t s = 0; s < 4; ++s)
    for (std::uintptr_t t = 1; t <= 2; ++t) cache.access(addr(s, t), false);
  util::Rng rng(9);
  // Evict enough random ways that at least one resident line disappears.
  for (int i = 0; i < 32; ++i) cache.evict_random_line(rng);
  std::size_t resident = 0;
  for (std::uintptr_t s = 0; s < 4; ++s)
    for (std::uintptr_t t = 1; t <= 2; ++t)
      if (cache.contains(addr(s, t))) ++resident;
  EXPECT_LT(resident, 8u);
}

TEST(CacheLevel, MissRate) {
  CacheLevel cache(small_cache());
  cache.access(0x0, false);
  cache.access(0x0, false);
  cache.access(0x0, false);
  cache.access(0x0, false);
  EXPECT_DOUBLE_EQ(cache.stats().miss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(CacheStats{}.miss_rate(), 0.0);
}

TEST(CacheLevel, ResetStatsKeepsContents) {
  CacheLevel cache(small_cache());
  cache.access(0x0, false);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.contains(0x0));
}

TEST(CacheLevel, ConfigValidation) {
  CacheConfig bad = small_cache();
  bad.line_bytes = 48;  // not a power of two
  EXPECT_THROW(CacheLevel{bad}, InvalidArgument);

  bad = small_cache();
  bad.associativity = 0;
  EXPECT_THROW(CacheLevel{bad}, InvalidArgument);

  bad = small_cache();
  bad.size_bytes = 500;  // not a multiple of assoc * line
  EXPECT_THROW(CacheLevel{bad}, InvalidArgument);

  bad = small_cache();
  bad.size_bytes = 3 * 2 * 64;  // 3 sets: not a power of two
  EXPECT_THROW(CacheLevel{bad}, InvalidArgument);

  bad = small_cache();
  bad.associativity = 128;
  bad.size_bytes = 128 * 64;
  EXPECT_THROW(CacheLevel{bad}, InvalidArgument);
}

TEST(ReplacementPolicy, Names) {
  EXPECT_EQ(to_string(ReplacementPolicy::kLru), "lru");
  EXPECT_EQ(to_string(ReplacementPolicy::kTreePlru), "tree-plru");
  EXPECT_EQ(to_string(ReplacementPolicy::kFifo), "fifo");
  EXPECT_EQ(to_string(ReplacementPolicy::kRandom), "random");
}

class PolicySweep : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(PolicySweep, AccountingInvariants) {
  CacheLevel cache(small_cache(GetParam()));
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i)
    cache.access(rng.below(64) * 64, rng.chance(0.3));
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_LE(s.writebacks, s.evictions);
  EXPECT_LE(s.evictions, s.misses);
}

TEST_P(PolicySweep, InstallMakesResident) {
  CacheLevel cache(small_cache(GetParam()));
  for (std::uintptr_t t = 0; t < 20; ++t) {
    cache.access(addr(t % 4, t), false);
    EXPECT_TRUE(cache.contains(addr(t % 4, t)));
  }
}

TEST_P(PolicySweep, WorkingSetWithinWaysAlwaysHitsAfterWarmup) {
  if (GetParam() == ReplacementPolicy::kRandom)
    GTEST_SKIP() << "random replacement gives no residency guarantee";
  CacheLevel cache(small_cache(GetParam()));
  // Two lines in one set == associativity; must be hit-stable.
  cache.access(addr(1, 10), false);
  cache.access(addr(1, 20), false);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(cache.access(addr(1, 10), false));
    EXPECT_TRUE(cache.access(addr(1, 20), false));
  }
}

TEST_P(PolicySweep, ThrashingSetMissesEveryTime) {
  if (GetParam() == ReplacementPolicy::kRandom)
    GTEST_SKIP() << "random replacement sometimes retains a line";
  CacheLevel cache(small_cache(GetParam()));
  // Cyclic access to associativity + 1 lines in one set defeats LRU/FIFO.
  for (int round = 0; round < 5; ++round)
    for (std::uintptr_t t = 1; t <= 3; ++t)
      cache.access(addr(2, t), false);
  EXPECT_EQ(cache.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySweep,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kTreePlru,
                                           ReplacementPolicy::kFifo,
                                           ReplacementPolicy::kRandom));

}  // namespace
}  // namespace sce::uarch
