#include "nn/activation.hpp"

#include "nn/kernels/activation.hpp"
#include "nn/kernels/symbolic.hpp"
#include "util/error.hpp"

namespace sce::nn {

void ReLU::forward_into(const Tensor& input, Tensor& output,
                        Workspace& /*workspace*/, uarch::TraceSink& sink,
                        KernelMode mode, ExecutionPath path) const {
  if (!output.same_shape(input)) output.resize(input.shape());
  const std::size_t n = input.numel();
  if (kernels::select_path(sink, path) == ExecutionPath::kFast)
    kernels::relu_fast(input.data(), output.data(), n);
  else if (sink.discards())
    kernels::relu_scalar(input.data(), output.data(), n, mode);
  else
    kernels::relu_instrumented(input.data(), output.data(), n, sink, mode);
}

void ReLU::symbolic_forward(kernels::SymbolicExecutor& exec,
                            const std::vector<std::size_t>& input_shape,
                            KernelMode mode, ExecutionPath path) const {
  std::size_t n = 1;
  for (std::size_t d : input_shape) n *= d;
  kernels::relu_symbolic(n, exec, mode, path);
}

Tensor ReLU::train_forward(const Tensor& input) {
  cached_input_ = input;
  Tensor output(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i)
    output[i] = input[i] < 0.0f ? 0.0f : input[i];
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0)
    throw InvalidArgument("ReLU::backward before train_forward");
  if (!grad_output.same_shape(cached_input_))
    throw InvalidArgument("ReLU::backward: gradient shape mismatch");
  Tensor grad_input(cached_input_.shape());
  for (std::size_t i = 0; i < grad_input.numel(); ++i)
    grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  return grad_input;
}

}  // namespace sce::nn
