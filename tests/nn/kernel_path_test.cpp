// Two-tier kernel dispatch: the fast (SIMD) path must be bit-for-bit
// identical to the instrumented path for every layer, shape and kernel
// mode — including the edge shapes the register tiles have to tail off
// of, zeros/-0.0/denormal inputs exercising the zero-skip semantics, and
// plan buffer reuse.  An observing sink must always force the
// instrumented kernels no matter what path the caller requests, and the
// registry must cover every (op, mode, path) cell.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/symexec/engine.hpp"
#include "nn/activation.hpp"
#include "nn/avgpool.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/execution_path.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/model.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "nn/rnn.hpp"
#include "nn/shape_ops.hpp"
#include "nn/zoo.hpp"
#include "test_helpers.hpp"

namespace sce::nn {
namespace {

bool bit_identical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Sprinkle exact zeros, negative zeros and denormals over a random
/// tensor: the values whose handling distinguishes a true bit-identical
/// zero-skip from a plausible-looking reassociation.
Tensor adversarial_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t = testing::random_tensor(std::move(shape), seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    switch (i % 7) {
      case 1:
        t[i] = 0.0f;
        break;
      case 3:
        t[i] = -0.0f;
        break;
      case 5:
        t[i] = std::numeric_limits<float>::denorm_min() *
               static_cast<float>(1 + (i % 3));
        break;
      default:
        break;
    }
  }
  return t;
}

/// Both paths of one layer on one input, compared bitwise.
void expect_paths_match(const Layer& layer, const Tensor& input,
                        KernelMode mode) {
  uarch::NullSink sink;
  const Tensor instrumented =
      layer.forward(input, sink, mode, ExecutionPath::kInstrumented);
  const Tensor fast = layer.forward(input, sink, mode, ExecutionPath::kFast);
  EXPECT_TRUE(bit_identical(instrumented, fast))
      << layer.name() << " [" << to_string(mode) << "]";
}

void expect_paths_match_all_modes(const Layer& layer, const Tensor& input) {
  expect_paths_match(layer, input, KernelMode::kDataDependent);
  expect_paths_match(layer, input, KernelMode::kConstantFlow);
}

TEST(KernelPath, SelectPathHonoursRequestOnlyWhenSinkDiscards) {
  uarch::NullSink discards;
  uarch::CountingSink observes;
  EXPECT_EQ(kernels::select_path(discards, ExecutionPath::kFast),
            ExecutionPath::kFast);
  EXPECT_EQ(kernels::select_path(discards, ExecutionPath::kInstrumented),
            ExecutionPath::kInstrumented);
  EXPECT_EQ(kernels::select_path(observes, ExecutionPath::kFast),
            ExecutionPath::kInstrumented);
  EXPECT_EQ(kernels::select_path(observes, ExecutionPath::kInstrumented),
            ExecutionPath::kInstrumented);
}

TEST(KernelPath, ConvFastMatchesInstrumentedOnEdgeShapes) {
  struct Case {
    std::size_t in_c, out_c, k, stride, padding, in_h, in_w;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 0, 1, 1},     // 1x1 kernel on a 1x1 image (degenerate)
      {3, 5, 1, 1, 0, 7, 9},     // 1x1 kernel, non-multiple-of-8 widths
      {2, 3, 4, 1, 0, 4, 4},     // kernel == input: single output pixel
      {5, 7, 3, 1, 0, 9, 11},    // nothing divisible by the vector width
      {1, 4, 3, 2, 0, 11, 13},   // strided
      {2, 6, 3, 1, 1, 8, 8},     // padded: validity-mask path in cf
      {3, 2, 5, 2, 2, 12, 10},   // strided + padded + shrinking channels
      {8, 16, 5, 1, 0, 12, 12},  // the mnist hot layer (vector-friendly)
      {2, 5, 3, 1, 0, 7, 7},     // channel tiles of 4 and 1, 5x5 pixel tail
  };
  int index = 0;
  for (const Case& c : cases) {
    for (const ConvAlgorithm algorithm :
         {ConvAlgorithm::kDirect, ConvAlgorithm::kIm2col}) {
      SCOPED_TRACE(::testing::Message()
                   << "case " << index << " algorithm "
                   << to_string(algorithm));
      Conv2D conv(c.in_c, c.out_c, c.k, c.stride, c.padding);
      util::Rng rng(200 + static_cast<std::uint64_t>(index));
      conv.initialize(rng);
      conv.set_algorithm(algorithm);
      const Tensor input = adversarial_tensor(
          {c.in_c, c.in_h, c.in_w}, 300 + static_cast<std::uint64_t>(index));
      expect_paths_match_all_modes(conv, input);
    }
    ++index;
  }
}

TEST(KernelPath, DenseFastMatchesInstrumentedOnEdgeShapes) {
  // 107 = tiles of 8, 4 and 1 vectors plus a 3-wide tail.
  const std::size_t out_features[] = {1, 7, 8, 9, 33, 64, 70, 96, 107};
  const std::size_t in_features[] = {1, 5, 12, 64, 130};
  std::uint64_t seed = 400;
  for (std::size_t in_f : in_features) {
    for (std::size_t out_f : out_features) {
      SCOPED_TRACE(::testing::Message() << in_f << "x" << out_f);
      Dense dense(in_f, out_f);
      util::Rng rng(seed);
      dense.initialize(rng);
      const Tensor input = adversarial_tensor({in_f}, seed + 1);
      expect_paths_match_all_modes(dense, input);
      seed += 2;
    }
  }
}

TEST(KernelPath, ActivationAndPoolingFastMatchInstrumented) {
  // ReLU on the full adversarial menu plus infinities and NaN: the fast
  // blend must pass -0.0 and NaN through exactly like the scalar branch.
  ReLU relu;
  Tensor relu_in = adversarial_tensor({3, 9, 11}, 500);
  relu_in[0] = std::numeric_limits<float>::infinity();
  relu_in[2] = -std::numeric_limits<float>::infinity();
  relu_in[4] = std::numeric_limits<float>::quiet_NaN();
  expect_paths_match_all_modes(relu, relu_in);

  MaxPool2D maxpool(2);
  expect_paths_match_all_modes(maxpool, adversarial_tensor({3, 10, 14}, 501));
  // Odd spatial dims: trailing row/column truncated.
  expect_paths_match_all_modes(maxpool, adversarial_tensor({5, 9, 7}, 502));
  MaxPool2D maxpool3(3);
  expect_paths_match_all_modes(maxpool3, adversarial_tensor({2, 9, 9}, 503));

  AvgPool2D avgpool(2);
  expect_paths_match_all_modes(avgpool, adversarial_tensor({3, 8, 6}, 504));

  Softmax softmax;
  expect_paths_match_all_modes(softmax, adversarial_tensor({10}, 505));

  Flatten flatten;
  expect_paths_match_all_modes(flatten, adversarial_tensor({2, 3, 5}, 506));
}

TEST(KernelPath, RnnFastMatchesInstrumented) {
  for (const std::size_t hidden : {1u, 7u, 8u, 12u, 31u, 32u, 40u}) {
    SCOPED_TRACE(::testing::Message() << "hidden " << hidden);
    ElmanRNN rnn(8, hidden);
    util::Rng rng(600 + hidden);
    rnn.initialize(rng);
    expect_paths_match_all_modes(rnn, adversarial_tensor({1, 6, 8}, 601));
  }
}

TEST(KernelPath, ZooModelsFastMatchesInstrumentedUnderPlanReuse) {
  struct ZooCase {
    const char* name;
    Sequential model;
    std::vector<std::size_t> input_shape;
  };
  ZooCase cases[] = {
      {"mnist_cnn", build_mnist_cnn(), {1, 28, 28}},
      {"cifar_cnn", build_cifar_cnn(), {3, 32, 32}},
      {"sequence_rnn", build_sequence_rnn(), {1, 6, 8}},
  };
  std::uint64_t seed = 700;
  for (ZooCase& c : cases) {
    SCOPED_TRACE(c.name);
    util::Rng rng(seed++);
    c.model.initialize(rng);
    InferencePlan plan = c.model.plan(c.input_shape);
    uarch::NullSink sink;
    // Alternate paths and modes through the same ping-pong buffers and
    // scratch slots across several inputs: stale bytes from the previous
    // run's other path must never influence a result.
    for (int round = 0; round < 3; ++round) {
      const Tensor input =
          adversarial_tensor(c.input_shape, seed + static_cast<std::uint64_t>(round));
      for (const KernelMode mode :
           {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
        Tensor instrumented =
            plan.run(input, sink, mode, ExecutionPath::kInstrumented);
        Tensor fast = plan.run(input, sink, mode, ExecutionPath::kFast);
        EXPECT_TRUE(bit_identical(instrumented, fast))
            << c.name << " round " << round << " [" << to_string(mode) << "]";
      }
    }
    seed += 10;
  }
}

TEST(KernelPath, ConvAlgorithmsBothMatchAcrossPathsOnZooShapes) {
  Sequential model = build_mnist_cnn();
  util::Rng rng(800);
  model.initialize(rng);
  const Tensor input = adversarial_tensor({1, 28, 28}, 801);
  for (const ConvAlgorithm algorithm :
       {ConvAlgorithm::kDirect, ConvAlgorithm::kIm2col}) {
    SCOPED_TRACE(to_string(algorithm));
    for (std::size_t i = 0; i < model.layer_count(); ++i)
      if (auto* conv = dynamic_cast<Conv2D*>(&model.layer(i)))
        conv->set_algorithm(algorithm);
    InferencePlan plan = model.plan(input.shape());
    uarch::NullSink sink;
    for (const KernelMode mode :
         {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
      Tensor instrumented =
          plan.run(input, sink, mode, ExecutionPath::kInstrumented);
      Tensor fast = plan.run(input, sink, mode, ExecutionPath::kFast);
      EXPECT_TRUE(bit_identical(instrumented, fast)) << to_string(mode);
    }
  }
}

TEST(KernelPath, ObservingSinkForcesInstrumentedKernels) {
  Sequential model = build_mnist_cnn();
  util::Rng rng(900);
  model.initialize(rng);
  const Tensor input = testing::random_tensor({1, 28, 28}, 901);
  InferencePlan plan = model.plan(input.shape());

  // Request the fast path with an observing sink: the run must produce
  // the exact event stream of an explicit instrumented run — i.e. the
  // request was overridden per layer, not silently half-honoured.
  uarch::CountingSink requested_fast;
  (void)plan.run(input, requested_fast, KernelMode::kDataDependent,
                 ExecutionPath::kFast);
  uarch::CountingSink requested_instrumented;
  (void)plan.run(input, requested_instrumented, KernelMode::kDataDependent,
                 ExecutionPath::kInstrumented);

  EXPECT_GT(requested_fast.instructions(), 0u);
  EXPECT_EQ(requested_fast.loads(), requested_instrumented.loads());
  EXPECT_EQ(requested_fast.stores(), requested_instrumented.stores());
  EXPECT_EQ(requested_fast.branches(), requested_instrumented.branches());
  EXPECT_EQ(requested_fast.retired(), requested_instrumented.retired());
}

LeakageContract derived_contract(const Layer& layer,
                                 const std::vector<std::size_t>& shape,
                                 KernelMode mode, ExecutionPath path) {
  return analysis::symexec::derive_layer_contract(layer, shape, mode, path)
      .contract;
}

TEST(KernelPath, ContractsStampPathAndVerifiability) {
  Dense dense(4, 4);
  const LeakageContract instrumented = derived_contract(
      dense, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_EQ(instrumented.path, ExecutionPath::kInstrumented);
  EXPECT_TRUE(instrumented.oracle_verifiable());

  const LeakageContract fast = derived_contract(
      dense, {4}, KernelMode::kDataDependent, ExecutionPath::kFast);
  EXPECT_EQ(fast.path, ExecutionPath::kFast);
  EXPECT_FALSE(fast.oracle_verifiable());
  EXPECT_NE(to_string(fast).find("fast path"), std::string::npos);

  // Dense's fast kernel keeps the real row-skip branch, so its fast
  // contract still claims input-dependent behaviour; conv's lane-blend
  // zero skip is branchless, so its fast contract is constant-flow.
  EXPECT_TRUE(fast.input_dependent());
  Conv2D conv(1, 1, 3);
  EXPECT_FALSE(derived_contract(conv, {1, 6, 6}, KernelMode::kDataDependent,
                                ExecutionPath::kFast)
                   .input_dependent());
  EXPECT_TRUE(derived_contract(conv, {1, 6, 6}, KernelMode::kDataDependent,
                               ExecutionPath::kInstrumented)
                  .input_dependent());
}

TEST(KernelPath, RegistryCoversEveryOpModePathCell) {
  const std::vector<std::string> ops = kernels::all_ops();
  EXPECT_NE(std::find(ops.begin(), ops.end(), "conv2d.direct"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "conv2d.im2col"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "dense"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "relu"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "maxpool2d"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "avgpool2d"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "softmax"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "elman-rnn"), ops.end());

  for (const std::string& op : ops) {
    for (const KernelMode mode :
         {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
      for (const ExecutionPath path :
           {ExecutionPath::kInstrumented, ExecutionPath::kFast}) {
        const kernels::KernelEntry* entry =
            kernels::find_kernel(op, mode, path);
        ASSERT_NE(entry, nullptr)
            << op << " [" << to_string(mode) << ", " << to_string(path) << "]";
        EXPECT_STRNE(entry->impl, "");
      }
    }
  }
  EXPECT_EQ(kernels::all_kernels().size(), ops.size() * 4);
}

TEST(KernelPath, AnalyzerSymbolicallyVerifiesFastPathContracts) {
  Sequential model = build_mnist_cnn();
  const analysis::PlanAnalyzer analyzer;
  const analysis::AnalysisReport instrumented = analyzer.analyze(
      model, {1, 28, 28}, KernelMode::kDataDependent, "mnist",
      ExecutionPath::kInstrumented);
  EXPECT_EQ(instrumented.unverified_layers, 0u);
  EXPECT_EQ(instrumented.symbolically_verified_layers, 0u);

  // Fast contracts still cannot be oracle-verified (no trace exists),
  // but the symbolic verifier anchors every one of them to its
  // oracle-validated instrumented contract, so nothing is left
  // unverified.
  const analysis::AnalysisReport fast =
      analyzer.analyze(model, {1, 28, 28}, KernelMode::kDataDependent, "mnist",
                       ExecutionPath::kFast);
  EXPECT_EQ(fast.path, ExecutionPath::kFast);
  EXPECT_EQ(fast.unverified_layers, 0u);
  EXPECT_EQ(fast.symbolically_verified_layers, model.layer_count());
  for (const analysis::LayerFinding& f : fast.findings) {
    EXPECT_FALSE(f.contract.oracle_verifiable()) << f.layer_name;
    EXPECT_TRUE(f.contract.symbolically_verified) << f.layer_name;
    EXPECT_TRUE(f.contract.verified()) << f.layer_name;
  }
}

}  // namespace
}  // namespace sce::nn
