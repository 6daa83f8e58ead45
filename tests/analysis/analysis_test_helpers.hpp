// Custom layers exercising the analyzer's edge cases: a deliberately
// leaky kernel (with an honest or a lying symbolic model), a sanitizing
// layer that clears secret taint, a layer with no symbolic model, and a
// layer whose symbolic model writes past its output buffer.
#pragma once

#include <algorithm>
#include <vector>

#include "nn/kernels/symbolic.hpp"
#include "nn/layer.hpp"
#include "tests/analysis/sym_site.hpp"
#include "tests/uarch/branch_site.hpp"
#include "util/error.hpp"

namespace sce::analysis::testing {

/// Identity layer whose kernel takes one real branch per element on the
/// sign of the activation — a deliberately leaky custom kernel.  Its
/// symbolic model is honest by default; construct with
/// `lie_constant = true` to leave the branch out of the model, so the
/// derived contract claims constant-flow and the trace oracle must catch
/// it.  `claim_rng = true` makes the model draw inference randomness.
class LeakyProbeLayer final : public nn::Layer {
 public:
  explicit LeakyProbeLayer(bool lie_constant = false,
                           bool claim_rng = false)
      : lie_constant_(lie_constant), claim_rng_(claim_rng) {}

  std::string name() const override { return "leaky-probe"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& sink,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    const float* in = input.data();
    float* out = output.data();
    const std::uintptr_t site = SCE_BRANCH_SITE();
    for (std::size_t i = 0; i < input.numel(); ++i) {
      sink.load(&in[i], sizeof(float));
      sink.branch(site, in[i] > 0.0f);  // leaks in *both* kernel modes
      out[i] = in[i];
      sink.store(&out[i], sizeof(float));
    }
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        nn::KernelMode /*mode*/,
                        nn::ExecutionPath /*path*/) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    const nn::kernels::SymBuffer in = exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    if (claim_rng_) (void)exec.rng_draw(SCE_SYM_SITE("probe mask draw"));
    for (std::size_t i = 0; i < n; ++i) {
      const nn::kernels::SymValue v = exec.load(in, i);
      if (!lie_constant_) exec.branch(SCE_SYM_SITE("probe sign branch"), v);
      exec.store(out, i, v);
    }
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }

 private:
  bool lie_constant_;
  bool claim_rng_;
};

/// Constant-output layer: traceless, and its output carries no secret.
/// Its symbolic model assigns public constants, so the engine derives
/// TaintTransfer::kSanitize and downstream leaky kernels become
/// unexploitable.
class SanitizingLayer final : public nn::Layer {
 public:
  std::string name() const override { return "sanitizer"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::fill(output.data(), output.data() + output.numel(), 0.5f);
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        nn::KernelMode /*mode*/,
                        nn::ExecutionPath /*path*/) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    (void)exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i)
      exec.assign(out, i, nn::kernels::SymValue{});  // public constant
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

/// Identity layer that never overrides symbolic_forward: no contract can
/// be derived, so the analyzer must assume the conservative worst case.
class UndeclaredLayer final : public nn::Layer {
 public:
  std::string name() const override { return "undeclared"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

/// Identity layer whose symbolic model has an off-by-one bug: it stores
/// one element past its output buffer.  The engine must reject the model
/// with InvalidArgument instead of writing outside the buffer.
class OverrunningModelLayer final : public nn::Layer {
 public:
  std::string name() const override { return "overrunning-model"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        nn::KernelMode /*mode*/,
                        nn::ExecutionPath /*path*/) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    const nn::kernels::SymBuffer in = exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i <= n; ++i)  // one past the end
      exec.store(out, i, exec.load(in, i < n ? i : 0));
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

}  // namespace sce::analysis::testing
