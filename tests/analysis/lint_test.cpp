#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/lint.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "tests/core/campaign_helpers.hpp"
#include "util/error.hpp"

namespace sce::analysis {
namespace {

const std::vector<std::size_t> kTinyShape = {1, 12, 12};

TEST(Lint, PassesWithNoGatesConfigured) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.failure.empty());
  EXPECT_FALSE(report.cross_checked);
  EXPECT_FALSE(report.analysis.findings.empty());
}

TEST(Lint, VerdictGateFailsDataDependentModel) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.mode = nn::KernelMode::kDataDependent;
  // A data-dependent CNN leaks at least control flow; gating at the
  // bottom of the lattice must therefore trip.
  options.fail_on = Verdict::kConstantFlow;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_FALSE(report.passed);
  EXPECT_NE(report.failure.find("fail-on threshold"), std::string::npos)
      << report.failure;
}

TEST(Lint, ConstantFlowModePassesVerdictGate) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.mode = nn::KernelMode::kConstantFlow;
  options.fail_on = Verdict::kLeaksControlFlow;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.passed) << report.failure;
  EXPECT_EQ(report.analysis.verdict, Verdict::kConstantFlow);
}

TEST(Lint, CrossCheckRunsAndAgreesOnDerivedContracts) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.cross_check = true;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.cross_checked);
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_TRUE(report.passed) << report.failure;
}

TEST(Lint, CrossCheckOnFastPathValidatesInstrumentedAnchors) {
  // The fast kernels emit no trace, so the oracle cannot observe them
  // directly; cross-check instead validates the *instrumented* anchor
  // contracts that the symbolic refinement link ties the fast claims
  // to.  With the unverified gate on, the whole fast-path story must
  // hold: no oracle disagreement, nothing unverified.
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.cross_check = true;
  options.path = nn::ExecutionPath::kFast;
  options.fail_on_unverified = true;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.cross_checked);
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_TRUE(report.passed) << report.failure;
  EXPECT_EQ(report.analysis.unverified_layers, 0u);
  EXPECT_EQ(report.analysis.symbolically_verified_layers,
            model.layer_count());
}

TEST(Lint, MismatchedInputShapeThrows) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  // 28x28 inputs do not chain through a model built for 12x12.
  EXPECT_THROW(lint(model, {1, 28, 28}, options), Error);
}

TEST(Lint, SymbolicModelIndexingPastItsBufferThrows) {
  // A custom layer whose symbolic model stores one past its output
  // buffer: the engine throws instead of writing outside the buffer.
  nn::Sequential model = core::testing::tiny_model();
  model.add(std::make_unique<testing::OverrunningModelLayer>());
  LintOptions options;
  try {
    (void)lint(model, kTinyShape, options);
    FAIL() << "lint accepted a model that indexes past its buffer";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("element 4"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sce::analysis
