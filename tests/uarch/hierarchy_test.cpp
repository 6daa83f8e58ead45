#include "uarch/hierarchy.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace sce::uarch {
namespace {

HierarchyConfig tiny_hierarchy() {
  HierarchyConfig cfg;
  cfg.l1d = {"L1D", 512, 2, 64, ReplacementPolicy::kLru};
  cfg.l2 = {"L2", 2048, 4, 64, ReplacementPolicy::kLru};
  cfg.llc = {"LLC", 8192, 4, 64, ReplacementPolicy::kLru};
  return cfg;
}

TEST(MemoryHierarchy, FirstTouchMissesEverywhere) {
  MemoryHierarchy h(tiny_hierarchy());
  h.access(0x1000, 4, false);
  EXPECT_EQ(h.l1d_stats().misses, 1u);
  EXPECT_EQ(h.l2_stats().misses, 1u);
  EXPECT_EQ(h.llc_stats().misses, 1u);
  EXPECT_EQ(h.last_level_references(), 1u);
  EXPECT_EQ(h.last_level_misses(), 1u);
}

TEST(MemoryHierarchy, L1HitDoesNotReachLowerLevels) {
  MemoryHierarchy h(tiny_hierarchy());
  h.access(0x1000, 4, false);
  h.access(0x1004, 4, false);  // same line -> L1 hit
  EXPECT_EQ(h.l1d_stats().hits, 1u);
  EXPECT_EQ(h.l2_stats().accesses, 1u);
  EXPECT_EQ(h.llc_stats().accesses, 1u);
}

TEST(MemoryHierarchy, L2CatchesL1CapacityVictims) {
  MemoryHierarchy h(tiny_hierarchy());
  // L1: 8 lines (2 ways x 4 sets). Touch 9 lines mapping across sets,
  // then revisit the first: it should hit in L2.
  for (std::uintptr_t i = 0; i < 9; ++i) h.access(i * 64, 4, false);
  const std::uint64_t l2_hits_before = h.l2_stats().hits;
  h.access(0, 4, false);  // evicted from L1 (set 0 saw lines 0, 4, 8)
  EXPECT_EQ(h.l2_stats().hits, l2_hits_before + 1);
  EXPECT_EQ(h.llc_stats().accesses, 9u);  // revisit stopped at L2
}

TEST(MemoryHierarchy, MultiLineAccessTouchesEachLine) {
  MemoryHierarchy h(tiny_hierarchy());
  const AccessResult r = h.access(0x1000, 200, false);
  EXPECT_EQ(r.lines_touched, 4u);  // 200 bytes spanning 4 lines
  EXPECT_EQ(h.l1d_stats().accesses, 4u);
}

TEST(MemoryHierarchy, StraddlingAccessCountsBothLines) {
  MemoryHierarchy h(tiny_hierarchy());
  const AccessResult r = h.access(0x103E, 4, false);  // crosses 0x1040
  EXPECT_EQ(r.lines_touched, 2u);
}

TEST(MemoryHierarchy, ZeroByteAccessThrows) {
  MemoryHierarchy h(tiny_hierarchy());
  EXPECT_THROW(h.access(0x1000, 0, false), InvalidArgument);
}

TEST(MemoryHierarchy, LatencyOrdering) {
  HierarchyConfig cfg = tiny_hierarchy();
  MemoryHierarchy h(cfg);
  const AccessResult miss = h.access(0x2000, 4, false);
  const AccessResult l1_hit = h.access(0x2000, 4, false);
  EXPECT_EQ(l1_hit.cycles, cfg.l1_hit_cycles);
  // The first touch also misses the TLB.
  EXPECT_EQ(miss.cycles, cfg.memory_cycles + cfg.tlb_miss_cycles);
  EXPECT_GT(miss.cycles, l1_hit.cycles);
}

TEST(MemoryHierarchy, FlushAllColdStarts) {
  MemoryHierarchy h(tiny_hierarchy());
  h.access(0x3000, 4, false);
  h.flush_all();
  h.reset_stats();
  h.access(0x3000, 4, false);
  EXPECT_EQ(h.l1d_stats().misses, 1u);
  EXPECT_EQ(h.llc_stats().misses, 1u);
}

TEST(MemoryHierarchy, PolluteEvictsResidentLines) {
  MemoryHierarchy h(tiny_hierarchy());
  for (std::uintptr_t i = 0; i < 8; ++i) h.access(i * 64, 4, false);
  util::Rng rng(3);
  h.pollute(200, rng);
  h.reset_stats();
  for (std::uintptr_t i = 0; i < 8; ++i) h.access(i * 64, 4, false);
  EXPECT_GT(h.l1d_stats().misses, 0u);
}

TEST(MemoryHierarchy, LastLevelCountsComeFromTheLlc) {
  MemoryHierarchy h(tiny_hierarchy());
  // Five lines 512 bytes apart share one L1D set (2 ways) and one L2 set
  // (4 ways) but fit in the LLC, so the first of them is evicted from L1D
  // and L2 and its revisit is an LLC hit.
  for (std::uintptr_t i = 0; i < 5; ++i) h.access(0x1000 + i * 512, 4, false);
  h.access(0x1000, 4, false);
  EXPECT_EQ(h.l2_stats().misses, 6u);
  EXPECT_EQ(h.llc_stats().hits, 1u);
  EXPECT_EQ(h.last_level_references(), 6u);
  EXPECT_EQ(h.last_level_misses(), 5u);
}

TEST(MemoryHierarchy, NextLinePrefetchWarmsL2) {
  HierarchyConfig cfg = tiny_hierarchy();
  cfg.enable_next_line_prefetch = true;
  MemoryHierarchy h(cfg);
  h.access(0x1000, 4, false);  // miss; prefetches 0x1040 into L2
  h.reset_stats();
  h.access(0x1040, 4, false);  // L1 miss but L2 hit via prefetch
  EXPECT_EQ(h.l2_stats().hits, 1u);
  EXPECT_EQ(h.llc_stats().accesses, 1u);  // only the prefetch issued earlier
}

TEST(MemoryHierarchy, TlbMissAddsLatency) {
  const HierarchyConfig with_tlb = tiny_hierarchy();
  MemoryHierarchy h(with_tlb);
  const AccessResult first = h.access(0x5000, 4, false);
  EXPECT_EQ(first.cycles, with_tlb.memory_cycles + with_tlb.tlb_miss_cycles);
  EXPECT_EQ(h.tlb_stats().misses, 1u);
  const AccessResult second = h.access(0x5040, 4, false);  // same page
  EXPECT_EQ(h.tlb_stats().hits, 1u);
  EXPECT_EQ(second.cycles, with_tlb.memory_cycles);
}

TEST(MemoryHierarchy, DefaultConfigIsRealistic) {
  MemoryHierarchy h;
  EXPECT_EQ(h.config().l1d.size_bytes, 32u * 1024u);
  EXPECT_EQ(h.config().llc.size_bytes, 2u * 1024u * 1024u);
  EXPECT_EQ(h.config().l1d.policy, ReplacementPolicy::kTreePlru);
}

}  // namespace
}  // namespace sce::uarch
