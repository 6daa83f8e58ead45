// Shape/normalization layers: Flatten and Softmax.
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

/// Collapses any input shape to a rank-1 tensor.  Emits no memory traffic
/// of its own (a real implementation is a view).
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  /// A view in a real implementation; here a traceless copy.  Nothing to
  /// observe in either mode, on either path: no events in the symbolic
  /// domain either.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

 private:
  std::vector<std::size_t> cached_shape_;
};

/// Numerically stable softmax over a rank-1 tensor.
class Softmax final : public Layer {
 public:
  std::string name() const override { return "softmax"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  /// Full softmax Jacobian backward (rarely used: the trainer fuses
  /// softmax with cross-entropy and skips this layer).
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  /// The running-max compare compiles branchless (cmov) and the
  /// exp-normalize loops do fixed work per element: constant-flow in
  /// both modes despite the value-dependent arithmetic.  Identical code
  /// shape on the fast path.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

 private:
  Tensor cached_output_;
};

}  // namespace sce::nn
