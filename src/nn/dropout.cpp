#include "nn/dropout.hpp"

#include <algorithm>

#include "nn/kernels/symbolic.hpp"
#include "util/error.hpp"

namespace sce::nn {

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (!(rate >= 0.0f) || !(rate < 1.0f))
    throw InvalidArgument("Dropout: rate must be in [0, 1)");
}

void Dropout::forward_into(const Tensor& input, Tensor& output,
                           Workspace& /*workspace*/,
                           uarch::TraceSink& /*sink*/, KernelMode /*mode*/,
                           ExecutionPath /*path*/) const {
  // Dropout is compiled out of the deployed network: inference is the
  // identity and emits no trace events, on every path.
  if (!output.same_shape(input)) output.resize(input.shape());
  std::copy(input.data(), input.data() + input.numel(), output.data());
}

void Dropout::symbolic_forward(kernels::SymbolicExecutor& exec,
                               const std::vector<std::size_t>& input_shape,
                               KernelMode /*mode*/,
                               ExecutionPath /*path*/) const {
  // No rng_draw here: the mask is drawn in train_forward only, and this
  // model is what proves the deployed layer keeps that promise.
  std::size_t n = 1;
  for (std::size_t d : input_shape) n *= d;
  const kernels::SymBuffer in = exec.input_buffer();
  const kernels::SymBuffer out = exec.output_buffer(n);
  for (std::size_t i = 0; i < n; ++i) exec.assign(out, i, exec.value(in, i));
}

Tensor Dropout::train_forward(const Tensor& input) {
  mask_.assign(input.numel(), true);
  Tensor output(input.shape());
  const float scale = 1.0f / (1.0f - rate_);
  for (std::size_t i = 0; i < input.numel(); ++i) {
    if (rng_.chance(rate_)) {
      mask_[i] = false;
      output[i] = 0.0f;
    } else {
      output[i] = input[i] * scale;
    }
  }
  return output;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.size() != grad_output.numel())
    throw InvalidArgument("Dropout::backward before train_forward");
  Tensor grad_input(grad_output.shape());
  const float scale = 1.0f / (1.0f - rate_);
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    grad_input[i] = mask_[i] ? grad_output[i] * scale : 0.0f;
  return grad_input;
}

}  // namespace sce::nn
