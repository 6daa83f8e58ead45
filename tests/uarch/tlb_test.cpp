#include "uarch/tlb.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace sce::uarch {
namespace {

TlbConfig tiny_tlb() {
  TlbConfig cfg;
  cfg.entries = 8;
  cfg.associativity = 2;  // 4 sets
  cfg.page_bytes = 4096;
  return cfg;
}

TEST(Tlb, MissThenHitSamePage) {
  Tlb tlb(tiny_tlb());
  EXPECT_FALSE(tlb.access(0x10000));
  EXPECT_TRUE(tlb.access(0x10000));
  EXPECT_TRUE(tlb.access(0x10FFF));  // same 4K page
  EXPECT_FALSE(tlb.access(0x11000));  // next page
  EXPECT_EQ(tlb.stats().accesses, 4u);
  EXPECT_EQ(tlb.stats().hits, 2u);
  EXPECT_EQ(tlb.stats().misses, 2u);
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb tlb(tiny_tlb());
  // Pages mapping to set 0 (page number multiple of 4): 0, 4, 8.
  const std::uintptr_t page = 4096;
  tlb.access(0 * page);
  tlb.access(4 * page);
  tlb.access(0 * page);      // refresh page 0 -> page 4 is LRU
  tlb.access(8 * page);      // evicts page 4
  EXPECT_TRUE(tlb.access(0 * page));
  EXPECT_FALSE(tlb.access(4 * page));
}

TEST(Tlb, CapacityWorkingSetStable) {
  Tlb tlb(tiny_tlb());
  // 8 distinct pages spread over sets == capacity; second pass all hits.
  for (std::uintptr_t p = 0; p < 8; ++p) tlb.access(p * 4096);
  tlb.reset_stats();
  for (std::uintptr_t p = 0; p < 8; ++p) tlb.access(p * 4096);
  EXPECT_EQ(tlb.stats().hits, 8u);
}

TEST(Tlb, FlushForgets) {
  Tlb tlb(tiny_tlb());
  tlb.access(0x4000);
  tlb.flush();
  EXPECT_FALSE(tlb.access(0x4000));
}

TEST(Tlb, ConfigValidation) {
  TlbConfig bad = tiny_tlb();
  bad.entries = 0;
  EXPECT_THROW(Tlb{bad}, InvalidArgument);

  bad = tiny_tlb();
  bad.associativity = 3;  // 8 % 3 != 0
  EXPECT_THROW(Tlb{bad}, InvalidArgument);

  bad = tiny_tlb();
  bad.page_bytes = 3000;
  EXPECT_THROW(Tlb{bad}, InvalidArgument);

  bad = tiny_tlb();
  bad.entries = 6;
  bad.associativity = 2;  // 3 sets: not a power of two
  EXPECT_THROW(Tlb{bad}, InvalidArgument);
}

TEST(Tlb, AssociativityAboveSixtyFourRejected) {
  // The per-set MRU hint is a byte, and sets are capped at 64 entries.
  TlbConfig cfg;
  cfg.entries = 128;
  cfg.associativity = 128;
  EXPECT_THROW(Tlb{cfg}, InvalidArgument);

  cfg.entries = 64;
  cfg.associativity = 64;  // one fully associative set: the widest allowed
  Tlb tlb(cfg);
  for (std::uintptr_t p = 0; p < 64; ++p) EXPECT_FALSE(tlb.access(p * 4096));
  for (std::uintptr_t p = 64; p-- > 0;) EXPECT_TRUE(tlb.access(p * 4096));
}

TEST(Tlb, MruProbeKeepsLruOrder) {
  // Hits alternate between the set's MRU entry and the others; the LRU
  // victim must be the same as a plain scan would pick.
  Tlb tlb(tiny_tlb());
  const std::uintptr_t page = 4096;
  tlb.access(0 * page);
  tlb.access(4 * page);      // MRU: page 4
  tlb.access(4 * page);      // MRU probe hit
  tlb.access(0 * page);      // scan hit; page 4 is now LRU
  tlb.access(8 * page);      // evicts page 4
  EXPECT_TRUE(tlb.access(8 * page));
  EXPECT_TRUE(tlb.access(0 * page));
  EXPECT_FALSE(tlb.access(4 * page));
  EXPECT_EQ(tlb.stats().misses, 4u);
}

TEST(Tlb, DefaultConfig) {
  Tlb tlb;
  EXPECT_EQ(tlb.config().entries, 64u);
  EXPECT_EQ(tlb.config().page_bytes, 4096u);
}

}  // namespace
}  // namespace sce::uarch
