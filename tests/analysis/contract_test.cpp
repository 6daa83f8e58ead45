// LeakageContract semantics plus the per-layer µarch trace oracle:
// every contract derived from a src/nn layer's symbolic model must match
// the pinned fixture table and agree, claim by claim, with the variance
// the RecordingSink actually observes across probe inputs.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/events.hpp"
#include "analysis/oracle.hpp"
#include "analysis/symexec/engine.hpp"
#include "nn/activation.hpp"
#include "nn/avgpool.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/layer.hpp"
#include "nn/pool.hpp"
#include "nn/rnn.hpp"
#include "nn/shape_ops.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "util/rng.hpp"

namespace sce::analysis {
namespace {

using nn::KernelMode;
using nn::LeakageContract;
using testing::LeakyProbeLayer;
using testing::UndeclaredLayer;

LeakageContract derived_contract(
    const nn::Layer& layer, const std::vector<std::size_t>& shape,
    KernelMode mode,
    nn::ExecutionPath path = nn::ExecutionPath::kInstrumented) {
  return symexec::derive_layer_contract(layer, shape, mode, path).contract;
}

TEST(LeakageContract, ConstantIsConstantFlow) {
  // A default-constructed contract is the fully invariant kernel (the
  // countermeasure claim).
  const LeakageContract c;
  EXPECT_TRUE(c.constant_flow());
  EXPECT_FALSE(c.input_dependent());
  EXPECT_TRUE(c.declared);
}

TEST(LeakageContract, UndeclaredIsWorstCase) {
  const LeakageContract c = LeakageContract::undeclared();
  EXPECT_FALSE(c.declared);
  EXPECT_TRUE(c.branch_outcomes_vary);
  EXPECT_TRUE(c.branch_count_varies);
  EXPECT_TRUE(c.address_stream_varies);
  EXPECT_TRUE(c.instruction_count_varies);
  EXPECT_TRUE(c.input_dependent());
}

TEST(LeakageContract, BaseLayerDefaultIsUndeclared) {
  UndeclaredLayer layer;
  EXPECT_EQ(derived_contract(layer, {4}, KernelMode::kDataDependent),
            LeakageContract::undeclared());
  EXPECT_EQ(derived_contract(layer, {4}, KernelMode::kConstantFlow),
            LeakageContract::undeclared());
}

TEST(LeakageContract, EveryLibraryLayerIsConstantInConstantFlowMode) {
  struct Case {
    std::unique_ptr<nn::Layer> layer;
    std::vector<std::size_t> shape;
  };
  const std::vector<Case> cases = [] {
    std::vector<Case> v;
    v.push_back({std::make_unique<nn::Conv2D>(1, 2, 3), {1, 6, 6}});
    v.push_back({std::make_unique<nn::ReLU>(), {8}});
    v.push_back({std::make_unique<nn::MaxPool2D>(2), {1, 4, 4}});
    v.push_back({std::make_unique<nn::AvgPool2D>(2), {1, 4, 4}});
    v.push_back({std::make_unique<nn::Flatten>(), {2, 4}});
    v.push_back({std::make_unique<nn::Dense>(8, 4), {8}});
    v.push_back({std::make_unique<nn::Softmax>(), {8}});
    v.push_back({std::make_unique<nn::Dropout>(0.5f), {8}});
    v.push_back({std::make_unique<nn::ElmanRNN>(8, 4), {1, 3, 8}});
    return v;
  }();
  for (const Case& entry : cases) {
    const std::string name = entry.layer->name();
    const LeakageContract c =
        derived_contract(*entry.layer, entry.shape, KernelMode::kConstantFlow);
    EXPECT_TRUE(c.declared) << name;
    EXPECT_FALSE(c.input_dependent())
        << name << " claims input dependence under constant-flow";
    EXPECT_FALSE(c.consumes_rng) << name;
  }
}

TEST(LeakageContract, DropoutDrawsNoRngAtInference) {
  // Dropout is identity at inference time: no randomness is consumed in
  // either mode (contract), and the dynamic trace is input-invariant
  // (oracle) — the RNG finding must not fire for it.
  nn::Dropout dropout(0.5f);
  for (KernelMode mode :
       {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
    EXPECT_FALSE(derived_contract(dropout, {4, 6}, mode).consumes_rng);
    const TraceVariance observed =
        probe_layer(dropout, default_probes({4, 6}), mode);
    EXPECT_FALSE(observed.any());
  }
}

// The heart of the cross-validation: for each library layer and each
// kernel mode, observed trace variance must equal the derived contract
// flag-for-flag.  A model that over-claims or under-claims fails here.
void expect_contract_matches_oracle(const nn::Layer& layer,
                                    const std::vector<std::size_t>& shape) {
  for (KernelMode mode :
       {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
    const LeakageContract derived = derived_contract(layer, shape, mode);
    ASSERT_TRUE(derived.declared) << layer.name();
    const TraceVariance observed =
        probe_layer(layer, default_probes(shape), mode);
    EXPECT_EQ(derived.branch_outcomes_vary, observed.branch_outcomes)
        << layer.name() << " branch outcomes, " << to_string(mode);
    EXPECT_EQ(derived.branch_count_varies, observed.branch_count)
        << layer.name() << " branch count, " << to_string(mode);
    EXPECT_EQ(derived.address_stream_varies, observed.address_stream)
        << layer.name() << " address stream, " << to_string(mode);
    EXPECT_EQ(derived.instruction_count_varies, observed.instruction_count)
        << layer.name() << " instruction count, " << to_string(mode);
  }
}

TEST(ContractOracle, ReLU) {
  expect_contract_matches_oracle(nn::ReLU(), {3, 5, 5});
}

TEST(ContractOracle, MaxPool) {
  expect_contract_matches_oracle(nn::MaxPool2D(2), {2, 6, 6});
}

TEST(ContractOracle, AvgPool) {
  expect_contract_matches_oracle(nn::AvgPool2D(2), {2, 6, 6});
}

TEST(ContractOracle, FlattenAndSoftmax) {
  expect_contract_matches_oracle(nn::Flatten(), {2, 3, 4});
  expect_contract_matches_oracle(nn::Softmax(), {10});
}

TEST(ContractOracle, ConvDirect) {
  nn::Conv2D conv(2, 3, 3);
  util::Rng rng(11);
  conv.initialize(rng);
  expect_contract_matches_oracle(conv, {2, 6, 6});
}

TEST(ContractOracle, ConvIm2col) {
  nn::Conv2D conv(2, 3, 3);
  conv.set_algorithm(nn::ConvAlgorithm::kIm2col);
  util::Rng rng(11);
  conv.initialize(rng);
  expect_contract_matches_oracle(conv, {2, 6, 6});
}

TEST(ContractOracle, Dense) {
  nn::Dense dense(12, 5);
  util::Rng rng(11);
  dense.initialize(rng);
  expect_contract_matches_oracle(dense, {12});
}

TEST(ContractOracle, ElmanRNN) {
  nn::ElmanRNN rnn(6, 4);
  util::Rng rng(11);
  rnn.initialize(rng);
  expect_contract_matches_oracle(rnn, {1, 5, 6});
  // shape_scales_trace is the one claim the fixed-shape oracle cannot
  // falsify; assert the symbolic run reports it (both modes) since an
  // RNN's trace length broadcasts the sequence length.
  EXPECT_TRUE(derived_contract(rnn, {1, 5, 6}, KernelMode::kDataDependent)
                  .shape_scales_trace);
  EXPECT_TRUE(derived_contract(rnn, {1, 5, 6}, KernelMode::kConstantFlow)
                  .shape_scales_trace);
}

// The reference table of every library layer's contract, per (mode,
// path).  Each row is a literal expectation, so a kernel change that
// moves any claim has to edit this table in the same commit.  The last
// four layers are shapes that reach every vector body and tail of the
// fast kernels: Dense 12x107 runs GEMV tiles of 8, 4 and 1 vectors plus
// a 3-wide tail, ElmanRNN h=12 runs one vector plus a 4-wide tail, and
// Conv5 (5 output channels over a 5x5 output) runs channel tiles of 4
// and 1 plus a pixel tail.
std::unique_ptr<nn::Layer> make_fixture_layer(const std::string& name) {
  if (name == "ReLU") return std::make_unique<nn::ReLU>();
  if (name == "MaxPool2D") return std::make_unique<nn::MaxPool2D>(2);
  if (name == "AvgPool2D") return std::make_unique<nn::AvgPool2D>(2);
  if (name == "Flatten") return std::make_unique<nn::Flatten>();
  if (name == "Softmax") return std::make_unique<nn::Softmax>();
  if (name == "Dropout") return std::make_unique<nn::Dropout>(0.5f);
  if (name == "Conv2D/direct") return std::make_unique<nn::Conv2D>(2, 3, 3);
  if (name == "Conv2D/im2col") {
    auto conv = std::make_unique<nn::Conv2D>(2, 3, 3);
    conv->set_algorithm(nn::ConvAlgorithm::kIm2col);
    return conv;
  }
  if (name == "Dense") return std::make_unique<nn::Dense>(12, 5);
  if (name == "ElmanRNN") return std::make_unique<nn::ElmanRNN>(6, 4);
  if (name == "Conv5/direct") return std::make_unique<nn::Conv2D>(2, 5, 3);
  if (name == "Conv5/im2col") {
    auto conv = std::make_unique<nn::Conv2D>(2, 5, 3);
    conv->set_algorithm(nn::ConvAlgorithm::kIm2col);
    return conv;
  }
  if (name == "Dense 12x107") return std::make_unique<nn::Dense>(12, 107);
  if (name == "ElmanRNN h=12") return std::make_unique<nn::ElmanRNN>(6, 12);
  return nullptr;
}

std::vector<std::size_t> fixture_shape(const std::string& name) {
  if (name == "Flatten") return {2, 3, 4};
  if (name == "Softmax") return {10};
  if (name == "Dropout") return {4, 6};
  if (name == "Dense" || name == "Dense 12x107") return {12};
  if (name == "ElmanRNN" || name == "ElmanRNN h=12") return {1, 5, 6};
  if (name == "Conv5/direct" || name == "Conv5/im2col") return {2, 7, 7};
  if (name == "ReLU") return {3, 5, 5};
  return {2, 6, 6};  // pools and convolutions
}

TEST(ContractFixtures, LibraryLayersArePinned) {
  constexpr KernelMode DD = KernelMode::kDataDependent;
  constexpr KernelMode CF = KernelMode::kConstantFlow;
  constexpr nn::ExecutionPath INS = nn::ExecutionPath::kInstrumented;
  constexpr nn::ExecutionPath FST = nn::ExecutionPath::kFast;
  constexpr nn::TaintTransfer P = nn::TaintTransfer::kPropagate;
  struct Row {
    const char* layer;
    KernelMode mode;
    nn::ExecutionPath path;
    bool outcomes, count, addresses, instructions, rng;
    nn::TaintTransfer taint;
    bool shape_scaled;
  };
  // clang-format off
  const Row rows[] = {
      // layer            mode path  outc   count  addr   instr  rng    taint shape
      {"ReLU",           DD, INS, true,  false, false, false, false, P, false},
      {"ReLU",           DD, FST, false, false, false, false, false, P, false},
      {"ReLU",           CF, INS, false, false, false, false, false, P, false},
      {"ReLU",           CF, FST, false, false, false, false, false, P, false},
      {"MaxPool2D",      DD, INS, true,  false, false, false, false, P, false},
      {"MaxPool2D",      DD, FST, false, false, false, false, false, P, false},
      {"MaxPool2D",      CF, INS, false, false, false, false, false, P, false},
      {"MaxPool2D",      CF, FST, false, false, false, false, false, P, false},
      {"AvgPool2D",      DD, INS, false, false, false, false, false, P, false},
      {"AvgPool2D",      DD, FST, false, false, false, false, false, P, false},
      {"AvgPool2D",      CF, INS, false, false, false, false, false, P, false},
      {"AvgPool2D",      CF, FST, false, false, false, false, false, P, false},
      {"Flatten",        DD, INS, false, false, false, false, false, P, false},
      {"Flatten",        DD, FST, false, false, false, false, false, P, false},
      {"Flatten",        CF, INS, false, false, false, false, false, P, false},
      {"Flatten",        CF, FST, false, false, false, false, false, P, false},
      {"Softmax",        DD, INS, false, false, false, false, false, P, false},
      {"Softmax",        DD, FST, false, false, false, false, false, P, false},
      {"Softmax",        CF, INS, false, false, false, false, false, P, false},
      {"Softmax",        CF, FST, false, false, false, false, false, P, false},
      {"Dropout",        DD, INS, false, false, false, false, false, P, false},
      {"Dropout",        DD, FST, false, false, false, false, false, P, false},
      {"Dropout",        CF, INS, false, false, false, false, false, P, false},
      {"Dropout",        CF, FST, false, false, false, false, false, P, false},
      {"Conv2D/direct",  DD, INS, true,  false, true,  true,  false, P, false},
      {"Conv2D/direct",  DD, FST, false, false, false, false, false, P, false},
      {"Conv2D/direct",  CF, INS, false, false, false, false, false, P, false},
      {"Conv2D/direct",  CF, FST, false, false, false, false, false, P, false},
      {"Conv2D/im2col",  DD, INS, true,  false, true,  true,  false, P, false},
      {"Conv2D/im2col",  DD, FST, false, false, false, false, false, P, false},
      {"Conv2D/im2col",  CF, INS, false, false, false, false, false, P, false},
      {"Conv2D/im2col",  CF, FST, false, false, false, false, false, P, false},
      {"Dense",          DD, INS, true,  true,  true,  true,  false, P, false},
      {"Dense",          DD, FST, true,  true,  true,  true,  false, P, false},
      {"Dense",          CF, INS, false, false, false, false, false, P, false},
      {"Dense",          CF, FST, false, false, false, false, false, P, false},
      {"ElmanRNN",       DD, INS, true,  true,  true,  true,  false, P, true},
      {"ElmanRNN",       DD, FST, true,  true,  true,  true,  false, P, true},
      {"ElmanRNN",       CF, INS, false, false, false, false, false, P, true},
      {"ElmanRNN",       CF, FST, false, false, false, false, false, P, true},
      {"Conv5/direct",   DD, INS, true,  false, true,  true,  false, P, false},
      {"Conv5/direct",   DD, FST, false, false, false, false, false, P, false},
      {"Conv5/direct",   CF, INS, false, false, false, false, false, P, false},
      {"Conv5/direct",   CF, FST, false, false, false, false, false, P, false},
      {"Conv5/im2col",   DD, INS, true,  false, true,  true,  false, P, false},
      {"Conv5/im2col",   DD, FST, false, false, false, false, false, P, false},
      {"Conv5/im2col",   CF, INS, false, false, false, false, false, P, false},
      {"Conv5/im2col",   CF, FST, false, false, false, false, false, P, false},
      {"Dense 12x107",   DD, INS, true,  true,  true,  true,  false, P, false},
      {"Dense 12x107",   DD, FST, true,  true,  true,  true,  false, P, false},
      {"Dense 12x107",   CF, INS, false, false, false, false, false, P, false},
      {"Dense 12x107",   CF, FST, false, false, false, false, false, P, false},
      {"ElmanRNN h=12",  DD, INS, true,  true,  true,  true,  false, P, true},
      {"ElmanRNN h=12",  DD, FST, true,  true,  true,  true,  false, P, true},
      {"ElmanRNN h=12",  CF, INS, false, false, false, false, false, P, true},
      {"ElmanRNN h=12",  CF, FST, false, false, false, false, false, P, true},
  };
  // clang-format on
  for (const Row& row : rows) {
    const std::unique_ptr<nn::Layer> layer = make_fixture_layer(row.layer);
    ASSERT_NE(layer, nullptr) << row.layer;
    const LeakageContract c = derived_contract(
        *layer, fixture_shape(row.layer), row.mode, row.path);
    const std::string where = std::string(row.layer) + " " +
                              to_string(row.mode) + " " +
                              nn::to_string(row.path);
    EXPECT_TRUE(c.declared) << where;
    EXPECT_EQ(c.path, row.path) << where;
    EXPECT_EQ(c.branch_outcomes_vary, row.outcomes) << where;
    EXPECT_EQ(c.branch_count_varies, row.count) << where;
    EXPECT_EQ(c.address_stream_varies, row.addresses) << where;
    EXPECT_EQ(c.instruction_count_varies, row.instructions) << where;
    EXPECT_EQ(c.consumes_rng, row.rng) << where;
    EXPECT_EQ(c.taint, row.taint) << where;
    EXPECT_EQ(c.shape_scales_trace, row.shape_scaled) << where;
  }
}

TEST(ContractOracle, HonestLeakyLayerPasses) {
  LeakyProbeLayer honest(/*lie_constant=*/false);
  const TraceVariance observed =
      probe_layer(honest, default_probes({8}), KernelMode::kDataDependent);
  EXPECT_TRUE(observed.branch_outcomes);
  EXPECT_FALSE(observed.branch_count);
  EXPECT_FALSE(observed.address_stream);
  EXPECT_FALSE(observed.instruction_count);
  expect_contract_matches_oracle(honest, {8});
}

TEST(ContractOracle, LyingConstantContractIsCaught) {
  // A kernel that branches on its input but whose symbolic model leaves
  // the branch out, deriving constant-flow: the oracle must observe
  // branch-outcome variance the contract denies.
  LeakyProbeLayer liar(/*lie_constant=*/true);
  const LeakageContract derived =
      derived_contract(liar, {8}, KernelMode::kDataDependent);
  EXPECT_TRUE(derived.constant_flow());
  const TraceVariance observed =
      probe_layer(liar, default_probes({8}), KernelMode::kDataDependent);
  EXPECT_TRUE(observed.branch_outcomes);  // derived false, observed true
}

TEST(Events, VerdictLattice) {
  EXPECT_LT(Verdict::kConstantFlow, Verdict::kLeaksControlFlow);
  EXPECT_LT(Verdict::kLeaksControlFlow, Verdict::kLeaksAddresses);
  EXPECT_EQ(join(Verdict::kConstantFlow, Verdict::kLeaksAddresses),
            Verdict::kLeaksAddresses);
  EXPECT_EQ(verdict_for(LeakageContract{}),
            Verdict::kConstantFlow);
  EXPECT_EQ(verdict_for(LeakageContract::undeclared()),
            Verdict::kLeaksAddresses);

  LeakageContract branches_only;
  branches_only.branch_outcomes_vary = true;
  EXPECT_EQ(verdict_for(branches_only), Verdict::kLeaksControlFlow);

  LeakageContract rng_only;
  rng_only.consumes_rng = true;  // noise, not signal: verdict unchanged
  EXPECT_EQ(verdict_for(rng_only), Verdict::kConstantFlow);
}

TEST(Events, ParseVerdictRoundTrips) {
  for (Verdict v : {Verdict::kConstantFlow, Verdict::kLeaksControlFlow,
                    Verdict::kLeaksAddresses}) {
    const auto parsed = parse_verdict(to_string(v));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_EQ(parse_verdict("leaks-control-flow"), Verdict::kLeaksControlFlow);
  EXPECT_FALSE(parse_verdict("bogus").has_value());
}

TEST(Events, PredictedEventsMapping) {
  EXPECT_TRUE(predicted_events(LeakageContract{}).empty());

  LeakageContract outcomes;
  outcomes.branch_outcomes_vary = true;
  const EventSet e = predicted_events(outcomes);
  EXPECT_TRUE(e.contains(hpc::HpcEvent::kBranchMisses));
  EXPECT_FALSE(e.contains(hpc::HpcEvent::kBranches));  // count is fixed
  EXPECT_TRUE(e.contains(hpc::HpcEvent::kCycles));

  LeakageContract addresses;
  addresses.address_stream_varies = true;
  const EventSet a = predicted_events(addresses);
  EXPECT_TRUE(a.contains(hpc::HpcEvent::kCacheReferences));
  EXPECT_TRUE(a.contains(hpc::HpcEvent::kCacheMisses));

  // The worst case predicts the full 8-event row.
  EXPECT_EQ(predicted_events(LeakageContract::undeclared()).size(), 8u);
}

}  // namespace
}  // namespace sce::analysis
