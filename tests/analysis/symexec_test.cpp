// Symbolic kernel verifier: the static half of contract verification.
//
// These tests pin the two integration claims of the symbolic engine:
// (1) every zoo layer's analyzed contract is the one derived from its
// kernel, in every (mode, path) cell — and, on the instrumented path, it
// agrees with what the dynamic trace oracle actually observes; (2) the
// fast path is symbolically verified end to end, closing the
// oracle-unverified gap.  Plus the edge cases the
// abstract domain must not trip over: degenerate geometries, sanitizing
// layers, RNG draws and layers with no model at all.  Last, the engine
// driven directly: the arm-diff semantics its allocation-free if_else
// must keep, and the bounds check on every buffer access.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/oracle.hpp"
#include "analysis/symexec/engine.hpp"
#include "analysis/symexec/verifier.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/kernels/symbolic.hpp"
#include "nn/zoo.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "tests/analysis/sym_site.hpp"
#include "util/alloc_hook.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sce::analysis::symexec {
namespace {

using nn::ExecutionPath;
using nn::KernelMode;

constexpr KernelMode kModes[] = {KernelMode::kDataDependent,
                                 KernelMode::kConstantFlow};
constexpr ExecutionPath kPaths[] = {ExecutionPath::kInstrumented,
                                    ExecutionPath::kFast};

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
  util::Rng rng(7);
  for (ZooEntry& e : entries) e.model.initialize(rng);
  return entries;
}

// ---------------------------------------------------------------------
// Zoo-wide: the analyzed contract is the derived one, and every layer
// has a model (its contract is `declared`, not the assumed worst case),
// all four (mode, path) cells.

TEST(SymbolicDerivation, ZooDerivedContractsMatchDeclared) {
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      for (ExecutionPath path : kPaths) {
        const AnalysisReport report = PlanAnalyzer().analyze(
            e.model, e.input_shape, mode, e.name, path);
        EXPECT_EQ(report.undeclared_layers, 0u)
            << e.name << " " << nn::to_string(mode) << " "
            << nn::to_string(path);
        for (const LayerFinding& f : report.findings) {
          const DerivedContract derived = derive_layer_contract(
              e.model.layer(f.index), f.input_shape, mode, path);
          EXPECT_TRUE(f.contract.declared)
              << e.name << " layer #" << f.index << " " << f.layer_name;
          EXPECT_EQ(f.contract, derived.contract)
              << e.name << " layer #" << f.index << " " << f.layer_name;
        }
      }
    }
  }
}

TEST(SymbolicDerivation, FastPathZooIsFullySymbolicallyVerified) {
  // The acceptance claim of this subsystem: `leakage_lint --path fast`
  // used to tally every layer as oracle-unverified; the refinement
  // chain now vouches for all of them.
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      const AnalysisReport report = PlanAnalyzer().analyze(
          e.model, e.input_shape, mode, e.name, ExecutionPath::kFast);
      EXPECT_EQ(report.unverified_layers, 0u)
          << e.name << " " << nn::to_string(mode);
      EXPECT_EQ(report.symbolically_verified_layers, e.model.layer_count())
          << e.name << " " << nn::to_string(mode);
      for (const LayerFinding& f : report.findings)
        EXPECT_TRUE(f.contract.verified())
            << e.name << " layer #" << f.index << " " << f.layer_name;
    }
  }
}

// ---------------------------------------------------------------------
// Derived == oracle-observed: the symbolic engine and the dynamic trace
// oracle are two independent routes to the same four facts.  They must
// agree on every instrumented zoo layer, both modes.

TEST(SymbolicDerivation, DerivedFlagsMatchDynamicOracle) {
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      // The analyzer's shape inference assigns each layer its input
      // shape; reuse it so the probes match the symbolic geometry.
      const AnalysisReport report = PlanAnalyzer().analyze(
          e.model, e.input_shape, mode, e.name);
      ASSERT_EQ(report.findings.size(), e.model.layer_count());
      for (std::size_t i = 0; i < e.model.layer_count(); ++i) {
        const nn::Layer& layer = e.model.layer(i);
        const std::vector<std::size_t>& shape =
            report.findings[i].input_shape;
        const DerivedContract derived = derive_layer_contract(
            layer, shape, mode, ExecutionPath::kInstrumented);
        ASSERT_TRUE(derived.modeled) << e.name << " layer #" << i;
        const TraceVariance observed =
            probe_layer(layer, default_probes(shape), mode);
        const std::string where = std::string(e.name) + " layer #" +
                                  std::to_string(i) + " (" + layer.name() +
                                  ", " + nn::to_string(mode) + ")";
        EXPECT_EQ(derived.contract.branch_outcomes_vary,
                  observed.branch_outcomes)
            << where;
        EXPECT_EQ(derived.contract.branch_count_varies, observed.branch_count)
            << where;
        EXPECT_EQ(derived.contract.address_stream_varies,
                  observed.address_stream)
            << where;
        EXPECT_EQ(derived.contract.instruction_count_varies,
                  observed.instruction_count)
            << where;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Degenerate geometries: shapes where whole loop nests collapse must
// still derive the contract of an ordinary geometry (the claims are
// about what *can* vary, and even a 1x1 convolution has a secret center
// tap).  The ordinary contracts are pinned by ContractFixtures.

void expect_all_cells_match(const nn::Layer& layer,
                            const std::vector<std::size_t>& input_shape,
                            const nn::Layer& reference,
                            const std::vector<std::size_t>& reference_shape,
                            const char* what) {
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      const LayerVerification v =
          verify_layer(layer, input_shape, mode, path);
      EXPECT_TRUE(v.derived.modeled) << what;
      EXPECT_EQ(v.derived.contract,
                derive_layer_contract(reference, reference_shape, mode, path)
                    .contract)
          << what << " (" << nn::to_string(mode) << ", "
          << nn::to_string(path) << ")";
      if (path == ExecutionPath::kFast) {
        EXPECT_TRUE(v.derived.contract.symbolically_verified)
            << what << ": " << v.detail;
      }
    }
  }
}

TEST(SymbolicEdgeCases, PaddingOnlyConvRows) {
  // 1x1 input, 3x3 kernel, padding 2: most output pixels see *only*
  // padding (zero in-bounds taps), so entire gather loops vanish into
  // public control flow.  The one secret tap must still drive the
  // derived claims to those of an ordinary convolution.
  const nn::Conv2D conv(1, 1, 3, /*stride=*/1, /*padding=*/2);
  expect_all_cells_match(conv, {1, 1, 1}, nn::Conv2D(1, 1, 3), {1, 6, 6},
                         "conv2d 1x1 input, padding 2");
}

TEST(SymbolicEdgeCases, OneByOneKernelConv) {
  const nn::Conv2D conv(2, 3, 1);
  expect_all_cells_match(conv, {2, 4, 4}, nn::Conv2D(2, 3, 3), {2, 6, 6},
                         "conv2d 1x1 kernel");
}

TEST(SymbolicEdgeCases, Im2colConvDerivesFromItsOwnKernel) {
  // The zoo convolutions are all direct, so without this the im2col
  // kernel's derived contract would be checked nowhere but the fixture
  // table: it must match the direct algorithm's in every cell and the
  // oracle in both modes.
  nn::Conv2D conv(2, 3, 3, /*stride=*/1, /*padding=*/1);
  conv.set_algorithm(nn::ConvAlgorithm::kIm2col);
  util::Rng rng(11);
  conv.initialize(rng);
  const std::vector<std::size_t> shape = {2, 6, 6};
  expect_all_cells_match(conv, shape,
                         nn::Conv2D(2, 3, 3, /*stride=*/1, /*padding=*/1),
                         shape, "conv2d im2col");

  for (KernelMode mode : kModes) {
    const DerivedContract derived = derive_layer_contract(
        conv, shape, mode, ExecutionPath::kInstrumented);
    ASSERT_TRUE(derived.modeled);
    const TraceVariance observed =
        probe_layer(conv, default_probes(shape), mode);
    EXPECT_EQ(derived.contract.branch_outcomes_vary, observed.branch_outcomes)
        << nn::to_string(mode);
    EXPECT_EQ(derived.contract.branch_count_varies, observed.branch_count)
        << nn::to_string(mode);
    EXPECT_EQ(derived.contract.address_stream_varies, observed.address_stream)
        << nn::to_string(mode);
    EXPECT_EQ(derived.contract.instruction_count_varies,
              observed.instruction_count)
        << nn::to_string(mode);
  }
  // The GEMM's zero skip is what leaks; the patch gather does not.
  const DerivedContract derived = derive_layer_contract(
      conv, shape, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_FALSE(derived.witnesses.empty());
  for (const Witness& w : derived.witnesses)
    EXPECT_EQ(w.label, "conv2d im2col GEMM zero-skip") << w.aspect;
}

TEST(SymbolicEdgeCases, SingleUnitDense) {
  const nn::Dense dense(1, 1);
  expect_all_cells_match(dense, {1}, nn::Dense(4, 3), {4}, "dense 1->1");

  // In the data-dependent mode even the 1x1 case keeps all four claims:
  // the single row-skip branch still guards real work.
  const DerivedContract derived = derive_layer_contract(
      dense, {1}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_TRUE(derived.contract.branch_outcomes_vary);
  EXPECT_TRUE(derived.contract.branch_count_varies);
  EXPECT_TRUE(derived.contract.address_stream_varies);
  EXPECT_TRUE(derived.contract.instruction_count_varies);
}

TEST(SymbolicEdgeCases, ConstantFlowKernelsDeriveConstant) {
  const nn::Dense dense(3, 2);
  const DerivedContract derived = derive_layer_contract(
      dense, {3}, KernelMode::kConstantFlow, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_FALSE(derived.contract.input_dependent());
  EXPECT_TRUE(derived.witnesses.empty());
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
}

TEST(SymbolicEdgeCases, DropoutDerivesNoInferenceRng) {
  // Dropout is identity at inference time; the derived contract proves
  // the deployed kernel draws no randomness.
  const nn::Dropout dropout(0.5f);
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      const DerivedContract derived =
          derive_layer_contract(dropout, {8}, mode, path);
      ASSERT_TRUE(derived.modeled);
      EXPECT_FALSE(derived.contract.consumes_rng);
      EXPECT_FALSE(derived.contract.input_dependent());
      EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
    }
  }
}

// ---------------------------------------------------------------------
// Custom layers exercising the abstract domain directly.

/// Identity layer whose kernel draws masking randomness: the model calls
/// rng_draw, so the engine must derive consumes_rng with an "rng"
/// witness.
class RngMaskLayer final : public nn::Layer {
 public:
  std::string name() const override { return "rng-mask"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    KernelMode /*mode*/, ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode /*mode*/,
                        ExecutionPath /*path*/) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    const nn::kernels::SymBuffer in = exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i) {
      const nn::kernels::SymValue mask =
          exec.rng_draw(SCE_SYM_SITE("mask draw"));
      exec.assign(out, i, join(exec.value(in, i), mask));
    }
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

TEST(SymbolicDomain, UnconditionalPublicStoresDeriveSanitize) {
  const testing::SanitizingLayer sanitizer;
  const DerivedContract derived = derive_layer_contract(
      sanitizer, {8}, KernelMode::kDataDependent,
      ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kSanitize);
  EXPECT_FALSE(derived.contract.input_dependent());

  // And the analyzer actually *uses* the derived sanitize: downstream
  // taint is cleared by the model, not by blind trust.
  nn::Sequential model;
  model.add(std::make_unique<testing::SanitizingLayer>());
  model.add(std::make_unique<nn::ReLU>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {8}, KernelMode::kDataDependent, "sanitized");
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
  EXPECT_EQ(report.findings[1].input_taint, Taint::kClean);
}

TEST(SymbolicDomain, RngDrawDerivesConsumesRngWithWitness) {
  const RngMaskLayer layer;
  const DerivedContract derived = derive_layer_contract(
      layer, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_TRUE(derived.contract.consumes_rng);
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
  const auto rng_witness =
      std::find_if(derived.witnesses.begin(), derived.witnesses.end(),
                   [](const Witness& w) { return w.aspect == "rng"; });
  ASSERT_NE(rng_witness, derived.witnesses.end());
  EXPECT_EQ(rng_witness->label, "mask draw");

  // The analyzer reports the draw without escalating the verdict.
  nn::Sequential model;
  model.add(std::make_unique<RngMaskLayer>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {4}, KernelMode::kDataDependent, "masked");
  EXPECT_EQ(report.rng_layers, 1u);
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
}

TEST(SymbolicDomain, UnmodeledLayerIsAssumedWorstCase) {
  // A custom layer with no symbolic model has no contract to derive: it
  // is analyzed as LeakageContract::undeclared() and counted as such.
  class PlainLayer final : public nn::Layer {
   public:
    std::string name() const override { return "plain"; }
    using nn::Layer::forward_into;
    void forward_into(const nn::Tensor& input, nn::Tensor& output,
                      nn::Workspace&, uarch::TraceSink&, KernelMode,
                      ExecutionPath) const override {
      if (!output.same_shape(input)) output.resize(input.shape());
      std::copy(input.data(), input.data() + input.numel(), output.data());
    }
    nn::Tensor train_forward(const nn::Tensor& input) override {
      return input;
    }
    nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
    std::vector<std::size_t> output_shape(
        const std::vector<std::size_t>& in) const override {
      return in;
    }
  };

  const PlainLayer plain;
  const LayerVerification v = verify_layer(
      plain, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_FALSE(v.derived.modeled);
  EXPECT_FALSE(v.detail.empty());
  EXPECT_EQ(v.derived.contract, nn::LeakageContract::undeclared());

  nn::Sequential model;
  model.add(std::make_unique<PlainLayer>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {4}, KernelMode::kDataDependent, "plain");
  EXPECT_EQ(report.undeclared_layers, 1u);
  EXPECT_FALSE(report.findings[0].contract.declared);
  EXPECT_EQ(report.verdict, Verdict::kLeaksAddresses);
}

// ---------------------------------------------------------------------
// Witnesses: every derived leak claim names the model site it came from.

TEST(SymbolicWitnesses, DenseWitnessesNameModelSites) {
  const nn::Dense dense(4, 3);
  const DerivedContract derived = derive_layer_contract(
      dense, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);

  std::vector<std::string> aspects;
  for (const Witness& w : derived.witnesses) {
    aspects.push_back(w.aspect);
    EXPECT_FALSE(w.file.empty()) << w.aspect;
    EXPECT_GT(w.line, 0) << w.aspect;
    EXPECT_FALSE(w.label.empty()) << w.aspect;
    EXPECT_FALSE(w.detail.empty()) << w.aspect;
    EXPECT_NE(w.file.find("dense_instrumented.cpp"), std::string::npos)
        << w.file;
  }
  for (const char* aspect : {"branch-outcomes", "branch-count",
                             "address-stream", "instruction-count"}) {
    EXPECT_NE(std::find(aspects.begin(), aspects.end(), aspect),
              aspects.end())
        << "missing witness aspect " << aspect;
  }
}

// ---------------------------------------------------------------------
// The engine driven directly: each test runs hand-written arms on a
// fresh engine and reads the derived flags and witnesses back.

using nn::kernels::SymBuffer;
using nn::kernels::SymTaint;
using nn::kernels::SymValue;

constexpr SymValue kSecret{SymTaint::kSecret};
constexpr SymValue kPublic{SymTaint::kPublic};

const Witness* find_witness(const DerivedContract& derived,
                            const std::string& aspect) {
  for (const Witness& w : derived.witnesses) {
    if (w.aspect == aspect) return &w;
  }
  return nullptr;
}

TEST(SymbolicEngine, NestedSecretArmsReachTheParentDiff) {
  // The inner secret if_else's arms make the same accesses, so the inner
  // diff sees nothing.  The outer then-arm inherits both inner arms'
  // accesses: an outer else-arm that makes them twice matches it, one
  // that makes them once does not.
  for (const int repeats : {2, 1}) {
    SymbolicEngine engine(4);
    const SymBuffer in = engine.input_buffer();
    const SymBuffer out = engine.output_buffer(4);
    const auto access = [&] { engine.store(out, 1, engine.load(in, 0)); };
    engine.if_else(
        SCE_SYM_SITE("outer"), kSecret,
        [&] { engine.if_else(SCE_SYM_SITE("inner"), kSecret, access, access); },
        [&] {
          engine.branch(SCE_SYM_SITE("stands in for the inner branch"),
                        kPublic);
          for (int r = 0; r < repeats; ++r) access();
        });
    const DerivedContract derived = engine.finish(ExecutionPath::kFast);
    SCOPED_TRACE(repeats);
    EXPECT_TRUE(derived.contract.branch_outcomes_vary);
    EXPECT_FALSE(derived.contract.branch_count_varies);
    EXPECT_EQ(derived.contract.address_stream_varies, repeats == 1);
    if (repeats == 1) {
      const Witness* w = find_witness(derived, "address-stream");
      ASSERT_NE(w, nullptr);
      EXPECT_EQ(w->label, "outer");
      EXPECT_NE(w->detail.find("(4 vs 2 accesses)"), std::string::npos)
          << w->detail;
    }
  }
}

TEST(SymbolicEngine, ReorderedAccessesVaryTheAddressStream) {
  SymbolicEngine engine(4);
  const SymBuffer in = engine.input_buffer();
  engine.if_else(
      SCE_SYM_SITE("swap"), kSecret,
      [&] {
        engine.load(in, 0);
        engine.load(in, 1);
      },
      [&] {
        engine.load(in, 1);
        engine.load(in, 0);
      });
  const DerivedContract derived = engine.finish(ExecutionPath::kFast);
  EXPECT_TRUE(derived.contract.branch_outcomes_vary);
  EXPECT_TRUE(derived.contract.address_stream_varies);
  EXPECT_FALSE(derived.contract.branch_count_varies);
  EXPECT_FALSE(derived.contract.instruction_count_varies);
  const Witness* w = find_witness(derived, "address-stream");
  ASSERT_NE(w, nullptr);
  EXPECT_NE(w->detail.find("(2 vs 2 accesses)"), std::string::npos)
      << w->detail;
}

TEST(SymbolicEngine, PublicPredicateWithDivergentArmsDerivesNothing) {
  SymbolicEngine engine(4);
  const SymBuffer in = engine.input_buffer();
  const SymBuffer out = engine.output_buffer(4);
  engine.if_else(
      SCE_SYM_SITE("public"), kPublic, [] {},
      [&] {
        engine.store(out, 0, engine.load(in, 0));
        engine.branch(SCE_SYM_SITE("public inner"), kPublic);
        engine.structural_branches(3);
        engine.retire(7);
      });
  const DerivedContract derived = engine.finish(ExecutionPath::kFast);
  EXPECT_FALSE(derived.contract.input_dependent());
  EXPECT_TRUE(derived.witnesses.empty());
}

TEST(SymbolicEngine, NestedGuardedStoreIsAWeakUpdateCarryingOuterTaint) {
  // A public store under a public guard nested in a secret one: the
  // outer guard's taint flows in (implicit flow).
  SymbolicEngine engine(4);
  (void)engine.input_buffer();
  const SymBuffer out = engine.output_buffer(4);
  engine.if_else(
      SCE_SYM_SITE("outer"), kSecret,
      [&] {
        engine.if_else(
            SCE_SYM_SITE("inner"), kPublic,
            [&] { engine.store(out, 0, kPublic); }, [] {});
      },
      [] {});
  EXPECT_TRUE(engine.value(out, 0).secret());

  // Public stores under two public guards: no guard taint flows in, but
  // the update is still weak, so an element's old secret taint survives.
  engine.assign(out, 1, kSecret);
  engine.if_else(
      SCE_SYM_SITE("public outer"), kPublic,
      [&] {
        engine.if_else(
            SCE_SYM_SITE("public inner"), kPublic,
            [&] {
              engine.store(out, 2, kPublic);
              engine.store(out, 1, kPublic);
            },
            [] {});
      },
      [] {});
  EXPECT_FALSE(engine.value(out, 2).secret());
  EXPECT_TRUE(engine.value(out, 1).secret());

  // Outside every guard a store is a strong update.
  engine.store(out, 1, kPublic);
  EXPECT_FALSE(engine.value(out, 1).secret());
}

TEST(SymbolicEngine, AccessCountWitnessComesFromTheFirstDivergentSite) {
  SymbolicEngine engine(4);
  const SymBuffer in = engine.input_buffer();
  engine.if_else(
      SCE_SYM_SITE("same"), kSecret, [&] { engine.load(in, 0); },
      [&] { engine.load(in, 0); });
  engine.if_else(
      SCE_SYM_SITE("first divergent"), kSecret, [&] { engine.load(in, 1); },
      [] {});
  engine.if_else(
      SCE_SYM_SITE("second divergent"), kSecret,
      [&] {
        engine.load(in, 2);
        engine.load(in, 3);
        engine.load(in, 0);
      },
      [] {});
  const DerivedContract derived = engine.finish(ExecutionPath::kFast);
  const Witness* w = find_witness(derived, "address-stream");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->label, "first divergent");
  EXPECT_NE(w->detail.find("(1 vs 0 accesses)"), std::string::npos)
      << w->detail;
  // One witness per aspect, in discovery order.
  std::vector<std::string> aspects;
  for (const Witness& x : derived.witnesses) aspects.push_back(x.aspect);
  EXPECT_EQ(aspects, (std::vector<std::string>{
                         "branch-outcomes", "address-stream"}));
}

TEST(SymbolicEngine, WarmIfElseDoesNotAllocate) {
  // The zero-skip pattern of the data-dependent conv and dense kernels:
  // one secret if_else per MAC, the work arm loading a weight.  Once the
  // first round has grown the engine's stacks and recorded every
  // witness, further if_elses must not touch the heap.
  constexpr std::size_t kRound = 16;
  SymbolicEngine engine(kRound);
  const SymBuffer in = engine.input_buffer();
  const SymBuffer w = engine.param_buffer("w", kRound);
  const SymBuffer out = engine.output_buffer(1);
  const auto round = [&](std::size_t count) {
    for (std::size_t n = 0; n < count; ++n) {
      const std::size_t i = n % kRound;
      const SymValue x = engine.load(in, i);
      engine.if_else(
          SCE_SYM_SITE("mac skip (x==0)"), x, [] {},
          [&] {
            const SymValue wi = engine.load(w, i);
            engine.assign(out, 0, join(engine.value(out, 0), x, wi));
            engine.retire(2);
          });
    }
  };
  round(kRound);
  const util::AllocationCounter guard;
  round(1000);
  EXPECT_EQ(guard.allocations(), 0u);
  const DerivedContract derived = engine.finish(ExecutionPath::kFast);
  EXPECT_TRUE(derived.contract.address_stream_varies);
  EXPECT_TRUE(derived.contract.instruction_count_varies);
}

TEST(SymbolicEngine, OutOfBoundsAccessThrowsNamingBufferAndIndex) {
  {
    SymbolicEngine engine(4);
    const SymBuffer in = engine.input_buffer();  // buffer 0
    const SymBuffer out = engine.output_buffer(2);  // buffer 1
    EXPECT_THROW(engine.load(in, 4), InvalidArgument);
    EXPECT_THROW(engine.value(out, 2), InvalidArgument);
    EXPECT_THROW(engine.assign(out, 2, kPublic), InvalidArgument);
    EXPECT_THROW(engine.load(SymBuffer{7}, 0), InvalidArgument);
    try {
      engine.store(out, 2, kPublic);
      FAIL() << "store past the end did not throw";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("buffer 1"), std::string::npos) << what;
      EXPECT_NE(what.find("element 2"), std::string::npos) << what;
    }
  }
  // A custom layer whose model stores one past its output is rejected,
  // and so is a model that contains it.
  const testing::OverrunningModelLayer layer;
  EXPECT_THROW(derive_layer_contract(layer, {1, 2, 3},
                                     KernelMode::kDataDependent,
                                     ExecutionPath::kInstrumented),
               InvalidArgument);
  nn::Sequential model;
  model.add(std::make_unique<testing::OverrunningModelLayer>());
  EXPECT_THROW(PlanAnalyzer().analyze(model, {6}, KernelMode::kDataDependent,
                                      "overrun"),
               InvalidArgument);
}

// ---------------------------------------------------------------------
// The refinement link: fast claims anchored to instrumented ones.

TEST(SymbolicRefinement, RefinesIsPointwiseImplication) {
  nn::LeakageContract quiet;                   // leaks nothing
  nn::LeakageContract loud = quiet;
  loud.branch_outcomes_vary = true;
  loud.address_stream_varies = true;
  EXPECT_TRUE(refines(quiet, loud));           // leaking less is fine
  EXPECT_TRUE(refines(loud, loud));
  EXPECT_FALSE(refines(loud, quiet));          // leaking more is not
}

TEST(SymbolicRefinement, FastDenseIsAnchoredToInstrumented) {
  const nn::Dense dense(4, 3);
  for (KernelMode mode : kModes) {
    const LayerVerification v =
        verify_layer(dense, {4}, mode, ExecutionPath::kFast);
    EXPECT_TRUE(v.derived.modeled);
    EXPECT_TRUE(v.derived.contract.symbolically_verified) << v.detail;
  }
  // The instrumented path never claims symbolic verification — there
  // the oracle itself is the authority.
  const LayerVerification inst = verify_layer(
      dense, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_FALSE(inst.derived.contract.symbolically_verified);
}

}  // namespace
}  // namespace sce::analysis::symexec
