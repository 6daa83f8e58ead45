#include "stats/t_test.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace sce::stats {
namespace {

TEST(WelchTTest, IdenticalSamplesNoEvidence) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0};
  const TTestResult r = welch_t_test(a, a);
  EXPECT_DOUBLE_EQ(r.t, 0.0);
  EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);
  EXPECT_FALSE(r.significant());
}

TEST(WelchTTest, KnownTextbookExample) {
  // a = {1..5}, b = {2..6}: t = -1, Welch df = 8, p = 0.34659.
  std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> b{2.0, 3.0, 4.0, 5.0, 6.0};
  const TTestResult r = welch_t_test(a, b);
  EXPECT_NEAR(r.t, -1.0, 1e-12);
  EXPECT_NEAR(r.df, 8.0, 1e-12);
  EXPECT_NEAR(r.p_two_sided, 0.34659, 1e-4);
  EXPECT_DOUBLE_EQ(r.mean_difference, -1.0);
}

TEST(WelchTTest, AntiSymmetricInArguments) {
  std::vector<double> a{1.0, 2.5, 3.0, 4.5};
  std::vector<double> b{2.0, 3.1, 5.0, 6.2, 7.0};
  const TTestResult ab = welch_t_test(a, b);
  const TTestResult ba = welch_t_test(b, a);
  EXPECT_DOUBLE_EQ(ab.t, -ba.t);
  EXPECT_DOUBLE_EQ(ab.df, ba.df);
  EXPECT_DOUBLE_EQ(ab.p_two_sided, ba.p_two_sided);
}

TEST(WelchTTest, DetectsLargeSeparation) {
  util::Rng rng(5);
  std::vector<double> a(100);
  std::vector<double> b(100);
  for (auto& x : a) x = rng.normal(100.0, 5.0);
  for (auto& x : b) x = rng.normal(110.0, 5.0);
  const TTestResult r = welch_t_test(a, b);
  EXPECT_LT(r.p_two_sided, 1e-6);
  EXPECT_TRUE(r.significant(0.05));
  EXPECT_LT(r.t, -8.0);
}

TEST(WelchTTest, FalsePositiveRateNearAlpha) {
  // Repeated tests on same-distribution samples should reject ~5%.
  util::Rng rng(6);
  int rejections = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> a(30);
    std::vector<double> b(30);
    for (auto& x : a) x = rng.normal(0.0, 1.0);
    for (auto& x : b) x = rng.normal(0.0, 1.0);
    if (welch_t_test(a, b).significant(0.05)) ++rejections;
  }
  EXPECT_NEAR(static_cast<double>(rejections) / trials, 0.05, 0.035);
}

TEST(WelchTTest, ConstantEqualSamples) {
  std::vector<double> a{5.0, 5.0, 5.0};
  const TTestResult r = welch_t_test(a, a);
  EXPECT_DOUBLE_EQ(r.t, 0.0);
  EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);
}

TEST(WelchTTest, ConstantDifferentSamples) {
  std::vector<double> a{5.0, 5.0, 5.0};
  std::vector<double> b{6.0, 6.0, 6.0};
  const TTestResult r = welch_t_test(a, b);
  EXPECT_TRUE(std::isinf(r.t));
  EXPECT_LT(r.t, 0.0);
  EXPECT_DOUBLE_EQ(r.p_two_sided, 0.0);
  EXPECT_TRUE(r.significant());
}

TEST(WelchTTest, UnequalVariancesUseSatterthwaite) {
  // Unequal variances: Welch df must be below the pooled n1+n2-2.
  std::vector<double> a{1.0, 1.1, 0.9, 1.05, 0.95};
  std::vector<double> b{0.0, 10.0, -5.0, 7.0, 3.0};
  const TTestResult r = welch_t_test(a, b);
  EXPECT_LT(r.df, 8.0);
  EXPECT_GT(r.df, 3.0);
}

TEST(WelchTTest, TooSmallSampleThrows) {
  std::vector<double> one{1.0};
  std::vector<double> ok{1.0, 2.0};
  EXPECT_THROW(welch_t_test(one, ok), InvalidArgument);
  EXPECT_THROW(welch_t_test(ok, one), InvalidArgument);
}

TEST(StudentTTest, MatchesWelchForEqualSizeEqualVariance) {
  util::Rng rng(9);
  std::vector<double> a(50);
  std::vector<double> b(50);
  for (auto& x : a) x = rng.normal(10.0, 2.0);
  for (auto& x : b) x = rng.normal(10.5, 2.0);
  const TTestResult w = welch_t_test(a, b);
  const TTestResult s = student_t_test(a, b);
  EXPECT_NEAR(w.t, s.t, 1e-10);   // identical for n1 == n2
  EXPECT_NEAR(w.p_two_sided, s.p_two_sided, 0.01);
}

TEST(StudentTTest, PooledDegreesOfFreedom) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{2.0, 3.0, 4.0, 5.0};
  const TTestResult r = student_t_test(a, b);
  EXPECT_DOUBLE_EQ(r.df, 5.0);
}

TEST(OneSampleTTest, KnownValue) {
  // Sample {1..5} vs mu0 = 2: mean 3, sd sqrt(2.5), se sqrt(0.5),
  // t = 1/sqrt(0.5) = 1.41421, df = 4, p = 0.2302.
  std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0};
  const TTestResult r = one_sample_t_test(a, 2.0);
  EXPECT_NEAR(r.t, std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(r.df, 4.0);
  EXPECT_NEAR(r.p_two_sided, 0.23019, 1e-4);
}

TEST(OneSampleTTest, ExactMeanGivesZeroT) {
  std::vector<double> a{1.0, 3.0, 5.0};
  const TTestResult r = one_sample_t_test(a, 3.0);
  EXPECT_DOUBLE_EQ(r.t, 0.0);
  EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);
}

TEST(OneSampleTTest, ConstantSample) {
  std::vector<double> a{4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(one_sample_t_test(a, 4.0).p_two_sided, 1.0);
  EXPECT_DOUBLE_EQ(one_sample_t_test(a, 5.0).p_two_sided, 0.0);
}

TEST(CohenD, SignTracksMeanDifference) {
  std::vector<double> lo{1.0, 2.0, 3.0};
  std::vector<double> hi{4.0, 5.0, 6.0};
  EXPECT_LT(welch_t_test(lo, hi).cohen_d, 0.0);
  EXPECT_GT(welch_t_test(hi, lo).cohen_d, 0.0);
}

TEST(CohenD, KnownMagnitude) {
  // Means 2 and 5, both variances 1 -> pooled sd 1 -> d = -3.
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_NEAR(welch_t_test(a, b).cohen_d, -3.0, 1e-12);
}

TEST(ConfidenceInterval, ContainsPointEstimate) {
  std::vector<double> a{10.0, 11.0, 12.0, 13.0};
  std::vector<double> b{8.0, 9.0, 10.0};
  const Summary sa = summarize(a);
  const Summary sb = summarize(b);
  const Interval ci = welch_confidence_interval(sa, sb, 0.05);
  const double diff = sa.mean - sb.mean;
  EXPECT_LT(ci.lo, diff);
  EXPECT_GT(ci.hi, diff);
}

TEST(ConfidenceInterval, WidensWithConfidence) {
  std::vector<double> a{10.0, 11.0, 12.0, 13.0};
  std::vector<double> b{8.0, 9.5, 10.0, 12.0};
  const Summary sa = summarize(a);
  const Summary sb = summarize(b);
  const Interval ci95 = welch_confidence_interval(sa, sb, 0.05);
  const Interval ci99 = welch_confidence_interval(sa, sb, 0.01);
  EXPECT_LT(ci99.lo, ci95.lo);
  EXPECT_GT(ci99.hi, ci95.hi);
}

TEST(ConfidenceInterval, ExcludesZeroIffSignificant) {
  util::Rng rng(12);
  std::vector<double> a(60);
  std::vector<double> b(60);
  for (auto& x : a) x = rng.normal(0.0, 1.0);
  for (auto& x : b) x = rng.normal(2.0, 1.0);
  const Summary sa = summarize(a);
  const Summary sb = summarize(b);
  const TTestResult r = welch_t_test(sa, sb);
  const Interval ci = welch_confidence_interval(sa, sb, 0.05);
  ASSERT_TRUE(r.significant(0.05));
  EXPECT_TRUE(ci.hi < 0.0 || ci.lo > 0.0);
}

TEST(ConfidenceInterval, BadAlphaThrows) {
  std::vector<double> a{1.0, 2.0};
  const Summary s = summarize(a);
  EXPECT_THROW(welch_confidence_interval(s, s, 0.0), InvalidArgument);
  EXPECT_THROW(welch_confidence_interval(s, s, 1.0), InvalidArgument);
}

// GoogleTest names each case by the bytes of its parameter, and CTest keeps
// that name. Two eight-byte fields leave no padding, so every byte of the
// name comes from the values; a bool here left seven uninitialised bytes in
// the name, which changed from one build or run to the next.
struct PowerCase {
  double delta;
  std::uint64_t expect_significant;  // 0 or 1
};

class WelchPowerSweep : public ::testing::TestWithParam<PowerCase> {};

TEST_P(WelchPowerSweep, SeparationDrivesSignificance) {
  // n=200, sd=1: the 5% test reliably detects delta >= 0.5 and reliably
  // does not detect delta = 0 (single draw, fixed seed per delta).
  const PowerCase c = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(c.delta * 1000) + 17);
  std::vector<double> a(200);
  std::vector<double> b(200);
  for (auto& x : a) x = rng.normal(0.0, 1.0);
  for (auto& x : b) x = rng.normal(c.delta, 1.0);
  EXPECT_EQ(welch_t_test(a, b).significant(0.05), c.expect_significant != 0);
}

INSTANTIATE_TEST_SUITE_P(
    Deltas, WelchPowerSweep,
    ::testing::Values(PowerCase{0.0, 0}, PowerCase{0.5, 1}, PowerCase{1.0, 1},
                      PowerCase{2.0, 1}));

}  // namespace
}  // namespace sce::stats
