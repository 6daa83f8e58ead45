// Static-vs-dynamic cross-validation over the model zoo: for every
// architecture and both kernel modes, the per-layer contracts (and hence
// the analyzer's verdict) must agree with the µarch trace oracle, and
// the whole-model planned trace must behave the way the verdict says —
// bit-identical across inputs when constant-flow, input-varying when not.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "analysis/analyzer.hpp"
#include "analysis/oracle.hpp"
#include "nn/plan.hpp"
#include "nn/zoo.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "uarch/trace.hpp"
#include "util/rng.hpp"

namespace sce::analysis {
namespace {

using nn::KernelMode;
using testing::LeakyProbeLayer;
using testing::UndeclaredLayer;

struct ZooEntry {
  const char* name;
  nn::Sequential model;
  std::vector<std::size_t> input_shape;
};

std::vector<ZooEntry> zoo() {
  std::vector<ZooEntry> entries;
  entries.push_back({"mnist", nn::build_mnist_cnn(), {1, 28, 28}});
  entries.push_back({"cifar", nn::build_cifar_cnn(), {3, 32, 32}});
  entries.push_back({"sequence", nn::build_sequence_rnn(), {1, 16, 8}});
  // He-init so the dynamic probes exercise numerically ordinary weights
  // (an all-zero Dense would make every row skippable on every input).
  util::Rng rng(7);
  for (ZooEntry& e : entries) e.model.initialize(rng);
  return entries;
}

TEST(CrossValidation, EveryZooModelAgreesWithOracle) {
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode :
         {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
      const auto mismatches =
          cross_check_model(e.model, e.input_shape, mode);
      for (const OracleMismatch& m : mismatches)
        ADD_FAILURE() << e.name << " (" << to_string(mode) << ") layer "
                      << m.layer_index << " " << m.layer_name << ": "
                      << m.detail;
      // Every zoo layer has a symbolic model, so nothing was skipped.
      EXPECT_EQ(PlanAnalyzer()
                    .analyze(e.model, e.input_shape, mode, e.name)
                    .undeclared_layers,
                0u)
          << e.name;
    }
  }
}

TEST(CrossValidation, ZooVerdictsMatchTheThreatModel) {
  // Data-dependent CNNs leak addresses (zero-skipping Dense/Conv); the
  // RNN pipeline leaks too; constant-flow is clean everywhere.
  for (ZooEntry& e : zoo()) {
    const AnalysisReport leaky = PlanAnalyzer().analyze(
        e.model, e.input_shape, KernelMode::kDataDependent, e.name);
    EXPECT_EQ(leaky.verdict, Verdict::kLeaksAddresses) << e.name;
    EXPECT_GT(leaky.exploitable_layers, 0u) << e.name;
    EXPECT_EQ(leaky.undeclared_layers, 0u) << e.name;

    const AnalysisReport clean = PlanAnalyzer().analyze(
        e.model, e.input_shape, KernelMode::kConstantFlow, e.name);
    EXPECT_EQ(clean.verdict, Verdict::kConstantFlow) << e.name;
    EXPECT_EQ(clean.exploitable_layers, 0u) << e.name;
  }
}

TEST(CrossValidation, LyingLayerInAModelIsCaught) {
  // The deliberately leaky custom layer whose symbolic model derives a
  // constant-flow contract: cross_check_model must report exactly its
  // branch-outcome claim.
  nn::Sequential model;
  model.add(std::make_unique<LeakyProbeLayer>(/*lie_constant=*/true));
  const auto mismatches =
      cross_check_model(model, {8}, KernelMode::kDataDependent);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].layer_index, 0u);
  EXPECT_EQ(mismatches[0].layer_name, "leaky-probe");
  EXPECT_NE(mismatches[0].detail.find("branch outcomes"),
            std::string::npos)
      << mismatches[0].detail;
}

TEST(CrossValidation, UndeclaredLayersAreSkipped) {
  // A layer with no symbolic model is analyzed as the worst case, which
  // no trace can falsify: the oracle skips it rather than report it.
  nn::Sequential model;
  model.add(std::make_unique<UndeclaredLayer>());
  EXPECT_TRUE(
      cross_check_model(model, {4}, KernelMode::kDataDependent).empty());
}

bool same_trace(const uarch::RecordingSink& a,
                const uarch::RecordingSink& b) {
  if (a.events().size() != b.events().size()) return false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& x = a.events()[i];
    const auto& y = b.events()[i];
    if (x.kind != y.kind || x.address != y.address || x.value != y.value)
      return false;
  }
  return true;
}

// End-to-end restatement of the verdicts: run the planned forward pass on
// two different inputs *through the same plan and the same input tensor*
// (layer 0 reads the caller's buffer directly, so reusing one tensor
// keeps every address comparable) and compare the full recorded traces.
TEST(CrossValidation, WholeModelTraceMatchesVerdict) {
  nn::Sequential model = nn::build_mnist_cnn();
  util::Rng rng(7);
  model.initialize(rng);
  const std::vector<std::size_t> shape{1, 28, 28};
  nn::InferencePlan plan(model, shape);

  // Two genuinely different activation patterns (a positive rescaling
  // would preserve every sign, zero and argmax and so leave even the
  // data-dependent trace unchanged): different periods AND sign flips.
  nn::Tensor input(shape);
  const auto fill = [&input](std::size_t period) {
    for (std::size_t i = 0; i < input.numel(); ++i)
      input[i] = (static_cast<float>(i % period) / 8.0f) - 1.0f;
  };

  for (KernelMode mode :
       {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
    uarch::RecordingSink first;
    fill(17);
    plan.run(input, first, mode);
    uarch::RecordingSink second;
    fill(23);
    plan.run(input, second, mode);
    if (mode == KernelMode::kConstantFlow)
      EXPECT_TRUE(same_trace(first, second))
          << "constant-flow trace varied with the input";
    else
      EXPECT_FALSE(same_trace(first, second))
          << "data-dependent trace failed to vary with the input";
  }
}

}  // namespace
}  // namespace sce::analysis
