#include "uarch/prefetcher.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "uarch/hierarchy.hpp"
#include "util/error.hpp"

namespace sce::uarch {
namespace {

TEST(StridePrefetcher, TrainsBeforeIssuing) {
  StridePrefetcher pf;
  std::vector<std::uintptr_t> targets{0xDEAD};
  // First two misses of a unit-stride stream: training only.  Each call
  // replaces the buffer's contents.
  pf.observe_miss(0x1000, targets);
  EXPECT_TRUE(targets.empty());
  pf.observe_miss(0x1040, targets);  // stride learned (conf 1)
  EXPECT_TRUE(targets.empty());
  // Third miss confirms the stride: prefetches issue.
  pf.observe_miss(0x1080, targets);
  ASSERT_EQ(targets.size(), 2u);  // degree 2
  EXPECT_EQ(targets[0], 0x10C0u);
  EXPECT_EQ(targets[1], 0x1100u);
  EXPECT_GT(pf.stats().issued, 0u);
}

TEST(StridePrefetcher, LearnsNonUnitStride) {
  StridePrefetcher pf;
  std::vector<std::uintptr_t> targets;
  pf.observe_miss(0x0, targets);
  pf.observe_miss(0x100, targets);   // stride 4 lines
  pf.observe_miss(0x200, targets);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 0x300u);
  EXPECT_EQ(targets[1], 0x400u);
}

TEST(StridePrefetcher, RandomMissesStayQuiet) {
  StridePrefetcher pf;
  util::Rng rng(5);
  std::vector<std::uintptr_t> targets;
  std::size_t issued = 0;
  for (int i = 0; i < 200; ++i) {
    pf.observe_miss(rng.below(1 << 20) * 64, targets);
    issued += targets.size();
  }
  // Random addresses rarely form confident streams.
  EXPECT_LT(issued, 20u);
}

TEST(StridePrefetcher, TracksMultipleStreams) {
  StridePrefetcher pf;
  // Two interleaved unit-stride streams far apart.
  std::vector<std::uintptr_t> targets;
  std::size_t issued = 0;
  for (std::uintptr_t i = 0; i < 6; ++i) {
    pf.observe_miss(0x10000 + i * 64, targets);
    issued += targets.size();
    pf.observe_miss(0x90000 + i * 64, targets);
    issued += targets.size();
  }
  EXPECT_GE(issued, 8u);  // both streams reach confidence and stream on
}

TEST(StridePrefetcher, FlushForgetsStreams) {
  StridePrefetcher pf;
  std::vector<std::uintptr_t> targets;
  pf.observe_miss(0x1000, targets);
  pf.observe_miss(0x1040, targets);
  pf.flush();
  pf.observe_miss(0x1080, targets);
  EXPECT_TRUE(targets.empty());  // training restarts
}

TEST(StridePrefetcher, ConfigValidation) {
  PrefetcherConfig bad;
  bad.streams = 0;
  EXPECT_THROW(StridePrefetcher{bad}, InvalidArgument);
  bad = PrefetcherConfig{};
  bad.line_bytes = 48;
  EXPECT_THROW(StridePrefetcher{bad}, InvalidArgument);
}

TEST(StridePrefetcher, HierarchyIntegrationWarmsL2ForStreams) {
  HierarchyConfig cfg;
  cfg.l1d = {"L1D", 512, 2, 64, ReplacementPolicy::kLru};
  cfg.l2 = {"L2", 4096, 4, 64, ReplacementPolicy::kLru};
  cfg.enable_llc = false;
  cfg.enable_tlb = false;
  cfg.enable_stride_prefetch = true;
  MemoryHierarchy h(cfg);
  // Stream through 32 sequential lines; after training, later lines hit
  // in L2 thanks to the streamer.
  for (std::uintptr_t i = 0; i < 32; ++i) h.access(i * 64, 4, false);
  EXPECT_GT(h.l2_stats().hits, 10u);
  EXPECT_GT(h.prefetcher_stats().issued, 10u);

  // Without the prefetcher every first touch misses L2 too.
  cfg.enable_stride_prefetch = false;
  MemoryHierarchy plain(cfg);
  for (std::uintptr_t i = 0; i < 32; ++i) plain.access(i * 64, 4, false);
  EXPECT_EQ(plain.l2_stats().hits, 0u);
}

}  // namespace
}  // namespace sce::uarch
