#include "nn/avgpool.hpp"

#include "nn/kernels/pooling.hpp"
#include "nn/kernels/symbolic.hpp"
#include "util/error.hpp"

namespace sce::nn {

AvgPool2D::AvgPool2D(std::size_t window) : window_(window) {
  if (window == 0) throw InvalidArgument("AvgPool2D: window must be positive");
}

std::vector<std::size_t> AvgPool2D::output_shape(
    const std::vector<std::size_t>& in) const {
  if (in.size() != 3) throw InvalidArgument("AvgPool2D: expected CHW input");
  if (in[1] < window_ || in[2] < window_)
    throw InvalidArgument("AvgPool2D: input smaller than window");
  return {in[0], in[1] / window_, in[2] / window_};
}

void AvgPool2D::forward_into(const Tensor& input, Tensor& output,
                             Workspace& /*workspace*/, uarch::TraceSink& sink,
                             KernelMode /*mode*/, ExecutionPath path) const {
  // No data-dependent shortcuts exist; both kernel modes are identical.
  if (input.rank() != 3 || input.dim(1) < window_ || input.dim(2) < window_)
    (void)output_shape(input.shape());  // throws with the full diagnosis
  const std::size_t out_h = input.dim(1) / window_;
  const std::size_t out_w = input.dim(2) / window_;
  if (output.rank() != 3 || output.dim(0) != input.dim(0) ||
      output.dim(1) != out_h || output.dim(2) != out_w)
    output.resize({input.dim(0), out_h, out_w});

  kernels::Pool2DShape shape;
  shape.in = input.data();
  shape.out = output.data();
  shape.channels = input.dim(0);
  shape.in_h = input.dim(1);
  shape.in_w = input.dim(2);
  shape.out_h = out_h;
  shape.out_w = out_w;
  shape.window = window_;

  if (kernels::select_path(sink, path) == ExecutionPath::kFast)
    kernels::avgpool2d_fast(shape);
  else if (sink.discards())
    kernels::avgpool2d_scalar(shape);
  else
    kernels::avgpool2d_instrumented(shape, sink);
}

void AvgPool2D::symbolic_forward(kernels::SymbolicExecutor& exec,
                                 const std::vector<std::size_t>& input_shape,
                                 KernelMode /*mode*/,
                                 ExecutionPath path) const {
  const std::vector<std::size_t> out = output_shape(input_shape);
  kernels::Pool2DShape shape;
  shape.channels = input_shape[0];
  shape.in_h = input_shape[1];
  shape.in_w = input_shape[2];
  shape.out_h = out[1];
  shape.out_w = out[2];
  shape.window = window_;
  kernels::avgpool2d_symbolic(shape, exec, path);
}

Tensor AvgPool2D::train_forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return forward(input);
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty())
    throw InvalidArgument("AvgPool2D::backward before train_forward");
  const auto out_shape = output_shape(cached_input_shape_);
  if (grad_output.shape() != out_shape)
    throw InvalidArgument("AvgPool2D::backward: gradient shape mismatch");
  Tensor grad_input(cached_input_shape_);
  const std::size_t channels = out_shape[0];
  const std::size_t out_h = out_shape[1];
  const std::size_t out_w = out_shape[2];
  const std::size_t in_h = cached_input_shape_[1];
  const std::size_t in_w = cached_input_shape_[2];
  const float inv_area = 1.0f / static_cast<float>(window_ * window_);

  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        const float g =
            grad_output[(c * out_h + oy) * out_w + ox] * inv_area;
        for (std::size_t wy = 0; wy < window_; ++wy)
          for (std::size_t wx = 0; wx < window_; ++wx)
            grad_input[(c * in_h + (oy * window_ + wy)) * in_w +
                       (ox * window_ + wx)] += g;
      }
    }
  }
  return grad_input;
}

}  // namespace sce::nn
