#include "nn/layer.hpp"

#include "nn/kernels/symbolic.hpp"

namespace sce::nn {

void Layer::symbolic_forward(kernels::SymbolicExecutor& exec,
                             const std::vector<std::size_t>& /*input_shape*/,
                             KernelMode /*mode*/,
                             ExecutionPath /*path*/) const {
  exec.unmodeled("layer has no symbolic kernel model");
}

Tensor Layer::forward(const Tensor& input, uarch::TraceSink& sink,
                      KernelMode mode, ExecutionPath path) const {
  Workspace workspace;
  Tensor output;
  forward_into(input, output, workspace, sink, mode, path);
  return output;
}

Tensor Layer::forward(const Tensor& input, uarch::TraceSink& sink,
                      KernelMode mode) const {
  return forward(input, sink, mode,
                 sink.discards() ? ExecutionPath::kFast
                                 : ExecutionPath::kInstrumented);
}

Tensor Layer::forward(const Tensor& input) const {
  uarch::NullSink sink;
  return forward(input, sink, KernelMode::kDataDependent,
                 ExecutionPath::kFast);
}

std::string to_string(KernelMode mode) {
  switch (mode) {
    case KernelMode::kDataDependent:
      return "data-dependent";
    case KernelMode::kConstantFlow:
      return "constant-flow";
  }
  return "?";
}

}  // namespace sce::nn
