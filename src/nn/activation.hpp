// ReLU activation: the source of the activation sparsity that the
// data-dependent kernels downstream exploit (and leak through).
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

class ReLU final : public Layer {
 public:
  std::string name() const override { return "relu"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override {
    return input_shape;
  }
  /// Data-dependent: the sign test is a real branch whose outcome tracks
  /// each activation, but load/store/retire counts are fixed — the leak
  /// is purely branch-outcome shaped.  Constant-flow: branchless maxss.
  /// The fast kernel is a vector blend in both modes: branch-free.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

 private:
  Tensor cached_input_;
};

}  // namespace sce::nn
