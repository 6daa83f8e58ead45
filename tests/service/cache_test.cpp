#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "service/cache.hpp"
#include "util/error.hpp"

namespace sce::service {
namespace {

// The cache key is (model, config, analyzer version); tests pin one
// version where the version itself is not under test.
constexpr const char* kV1 = "analyzer-v1";
constexpr const char* kV2 = "analyzer-v2";

TEST(ResultCache, MissThenHitAccounting) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.lookup("m1", "c1", kV1).has_value());
  cache.insert("m1", "c1", kV1, CachedResult{"{\"report\":1}", 32});

  const auto hit = cache.lookup("m1", "c1", kV1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report_json, "{\"report\":1}");
  EXPECT_EQ(hit->measurements, 32u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.measurements_saved, 32u);
}

TEST(ResultCache, KeyUsesAllThreeComponents) {
  ResultCache cache(4);
  cache.insert("m1", "c1", kV1, CachedResult{"r", 1});
  EXPECT_FALSE(cache.lookup("m1", "c2", kV1).has_value());
  EXPECT_FALSE(cache.lookup("m2", "c1", kV1).has_value());
  EXPECT_FALSE(cache.lookup("m1", "c1", kV2).has_value());
  EXPECT_TRUE(cache.lookup("m1", "c1", kV1).has_value());
}

TEST(ResultCache, AnalyzerUpgradeMissesThenCoexists) {
  // A report cached under the old analyzer must not be served after an
  // analyzer upgrade — the verdict may have changed.  Both versions'
  // entries are distinct cache lines (a rollback also finds its own).
  ResultCache cache(4);
  cache.insert("m", "c", kV1, CachedResult{"old-verdict", 8});
  EXPECT_FALSE(cache.lookup("m", "c", kV2).has_value());
  cache.insert("m", "c", kV2, CachedResult{"new-verdict", 8});

  const auto old_hit = cache.lookup("m", "c", kV1);
  const auto new_hit = cache.lookup("m", "c", kV2);
  ASSERT_TRUE(old_hit.has_value());
  ASSERT_TRUE(new_hit.has_value());
  EXPECT_EQ(old_hit->report_json, "old-verdict");
  EXPECT_EQ(new_hit->report_json, "new-verdict");
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert("a", "c", kV1, CachedResult{"ra", 1});
  cache.insert("b", "c", kV1, CachedResult{"rb", 1});
  ASSERT_TRUE(cache.lookup("a", "c", kV1).has_value());  // refresh "a"
  cache.insert("d", "c", kV1, CachedResult{"rd", 1});    // evicts "b"

  EXPECT_TRUE(cache.lookup("a", "c", kV1).has_value());
  EXPECT_FALSE(cache.lookup("b", "c", kV1).has_value());
  EXPECT_TRUE(cache.lookup("d", "c", kV1).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, StaleAnalyzerEntriesAgeOutUnderLru) {
  // After an upgrade the old version's entries are never refreshed, so
  // ordinary LRU pressure from new-version traffic evicts them first.
  ResultCache cache(2);
  cache.insert("m", "c", kV1, CachedResult{"stale", 1});
  cache.insert("m", "c", kV2, CachedResult{"fresh", 1});
  ASSERT_TRUE(cache.lookup("m", "c", kV2).has_value());
  cache.insert("m2", "c", kV2, CachedResult{"fresh2", 1});  // evicts kV1

  EXPECT_FALSE(cache.lookup("m", "c", kV1).has_value());
  EXPECT_TRUE(cache.lookup("m", "c", kV2).has_value());
  EXPECT_TRUE(cache.lookup("m2", "c", kV2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, OverwriteRefreshesEntry) {
  ResultCache cache(2);
  cache.insert("a", "c", kV1, CachedResult{"old", 1});
  cache.insert("a", "c", kV1, CachedResult{"new", 2});
  const auto hit = cache.lookup("a", "c", kV1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report_json, "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ZeroCapacityIsRejected) {
  EXPECT_THROW(ResultCache cache(0), ValidationError);
}

TEST(ResultCache, ConcurrentLookupsInsertsAndStatsAgree) {
  // The server's submit path and its stats verb reach one cache from
  // different threads.  Two threads insert, look up (their own keys and
  // the other's) and read stats at once, under LRU pressure; every call
  // must be counted once, whatever the interleaving.
  constexpr int kRounds = 500;
  ResultCache cache(4);
  std::atomic<std::size_t> hits{0};
  const auto tenant = [&](const std::string& self, const std::string& other) {
    for (int i = 0; i < kRounds; ++i) {
      const std::string config = "c" + std::to_string(i % 8);
      cache.insert(self, config, kV1, CachedResult{self + config, 1});
      for (const std::string& model : {self, other}) {
        const auto hit = cache.lookup(model, config, kV1);
        if (!hit) continue;
        ++hits;
        EXPECT_EQ(hit->report_json, model + config);
      }
      const CacheStats stats = cache.stats();
      EXPECT_LE(stats.entries, 4u);
      EXPECT_LE(stats.hits + stats.misses, std::size_t{4} * kRounds);
    }
  };
  std::thread a(tenant, "m0", "m1");
  std::thread b(tenant, "m1", "m0");
  a.join();
  b.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, std::size_t{2} * kRounds);
  EXPECT_EQ(stats.hits + stats.misses, std::size_t{4} * kRounds);
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.measurements_saved, stats.hits);
  EXPECT_EQ(stats.entries, 4u);
}

}  // namespace
}  // namespace sce::service
