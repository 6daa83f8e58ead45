#include "tests/uarch/branch_site.hpp"

#include <gtest/gtest.h>

namespace {

TEST(BranchSite, StableWithinSiteDistinctAcrossSites) {
  auto site_a = []() { return SCE_BRANCH_SITE(); };
  auto site_b = []() { return SCE_BRANCH_SITE(); };
  EXPECT_EQ(site_a(), site_a());
  EXPECT_EQ(site_b(), site_b());
  EXPECT_NE(site_a(), site_b());
}

}  // namespace
