#include "nn/shape_ops.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels/softmax.hpp"
#include "nn/kernels/symbolic.hpp"
#include "util/error.hpp"

namespace sce::nn {

std::vector<std::size_t> Flatten::output_shape(
    const std::vector<std::size_t>& in) const {
  if (in.empty()) throw InvalidArgument("Flatten: empty shape");
  std::size_t numel = 1;
  for (std::size_t d : in) numel *= d;
  return {numel};
}

void Flatten::forward_into(const Tensor& input, Tensor& output,
                           Workspace& /*workspace*/,
                           uarch::TraceSink& /*sink*/, KernelMode /*mode*/,
                           ExecutionPath /*path*/) const {
  // A real implementation is a view; here it is a traceless copy — the
  // same on every path.
  if (input.rank() == 0) (void)output_shape(input.shape());  // throws
  if (output.rank() != 1 || output.dim(0) != input.numel())
    output.resize({input.numel()});
  std::copy(input.data(), input.data() + input.numel(), output.data());
}

void Flatten::symbolic_forward(kernels::SymbolicExecutor& exec,
                               const std::vector<std::size_t>& input_shape,
                               KernelMode /*mode*/,
                               ExecutionPath /*path*/) const {
  std::size_t n = 1;
  for (std::size_t d : input_shape) n *= d;
  const kernels::SymBuffer in = exec.input_buffer();
  const kernels::SymBuffer out = exec.output_buffer(n);
  for (std::size_t i = 0; i < n; ++i) exec.assign(out, i, exec.value(in, i));
}

Tensor Flatten::train_forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return input.reshaped(output_shape(input.shape()));
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (cached_shape_.empty())
    throw InvalidArgument("Flatten::backward before train_forward");
  return grad_output.reshaped(cached_shape_);
}

std::vector<std::size_t> Softmax::output_shape(
    const std::vector<std::size_t>& in) const {
  if (in.size() != 1)
    throw InvalidArgument("Softmax: expected rank-1 input");
  return in;
}

void Softmax::forward_into(const Tensor& input, Tensor& output,
                           Workspace& /*workspace*/, uarch::TraceSink& sink,
                           KernelMode /*mode*/, ExecutionPath path) const {
  // Softmax has no useful data-dependent shortcuts; both kernel modes use
  // the same stable exp-normalize code.
  if (input.numel() == 0) throw InvalidArgument("Softmax: empty input");
  if (!output.same_shape(input)) output.resize(input.shape());
  const std::size_t n = input.numel();
  if (kernels::select_path(sink, path) == ExecutionPath::kFast)
    kernels::softmax_fast(input.data(), output.data(), n);
  else if (sink.discards())
    kernels::softmax_scalar(input.data(), output.data(), n);
  else
    kernels::softmax_instrumented(input.data(), output.data(), n, sink);
}

void Softmax::symbolic_forward(kernels::SymbolicExecutor& exec,
                               const std::vector<std::size_t>& input_shape,
                               KernelMode /*mode*/, ExecutionPath path) const {
  std::size_t n = 1;
  for (std::size_t d : input_shape) n *= d;
  kernels::softmax_symbolic(n, exec, path);
}

Tensor Softmax::train_forward(const Tensor& input) {
  cached_output_ = forward(input);
  return cached_output_;
}

Tensor Softmax::backward(const Tensor& grad_output) {
  if (cached_output_.numel() == 0)
    throw InvalidArgument("Softmax::backward before train_forward");
  if (!grad_output.same_shape(cached_output_))
    throw InvalidArgument("Softmax::backward: gradient shape mismatch");
  const std::size_t n = cached_output_.numel();
  Tensor grad_input(cached_output_.shape());
  double dot = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    dot += static_cast<double>(grad_output[i]) * cached_output_[i];
  for (std::size_t i = 0; i < n; ++i)
    grad_input[i] = cached_output_[i] *
                    (grad_output[i] - static_cast<float>(dot));
  return grad_input;
}

}  // namespace sce::nn
