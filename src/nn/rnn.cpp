#include "nn/rnn.hpp"

#include <cmath>

#include "nn/kernels/rnn.hpp"
#include "nn/kernels/symbolic.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"

namespace sce::nn {

ElmanRNN::ElmanRNN(std::size_t input_dim, std::size_t hidden_dim)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_({input_dim, hidden_dim}),
      wh_({hidden_dim, hidden_dim}),
      bias_(hidden_dim, 0.0f),
      grad_wx_({input_dim, hidden_dim}),
      grad_wh_({hidden_dim, hidden_dim}),
      grad_bias_(hidden_dim, 0.0f),
      momentum_wx_({input_dim, hidden_dim}),
      momentum_wh_({hidden_dim, hidden_dim}),
      momentum_bias_(hidden_dim, 0.0f) {
  if (input_dim == 0 || hidden_dim == 0)
    throw InvalidArgument("ElmanRNN: dimensions must be positive");
}

std::pair<std::size_t, std::size_t> ElmanRNN::sequence_dims(
    const std::vector<std::size_t>& shape) const {
  std::size_t t = 0;
  std::size_t d = 0;
  if (shape.size() == 2) {
    t = shape[0];
    d = shape[1];
  } else if (shape.size() == 3 && shape[0] == 1) {
    t = shape[1];
    d = shape[2];
  } else {
    throw InvalidArgument("ElmanRNN: expected {T, D} or {1, T, D} input");
  }
  if (d != input_dim_)
    throw InvalidArgument("ElmanRNN: input feature dim " + std::to_string(d) +
                          " != " + std::to_string(input_dim_));
  if (t == 0) throw InvalidArgument("ElmanRNN: empty sequence");
  return {t, d};
}

std::vector<std::size_t> ElmanRNN::output_shape(
    const std::vector<std::size_t>& in) const {
  (void)sequence_dims(in);
  return {hidden_dim_};
}

std::size_t ElmanRNN::parameter_count() const {
  return wx_.numel() + wh_.numel() + bias_.size();
}

void ElmanRNN::initialize(util::Rng& rng) {
  const double x_std = std::sqrt(2.0 / static_cast<double>(input_dim_));
  for (std::size_t i = 0; i < wx_.numel(); ++i)
    wx_[i] = static_cast<float>(rng.normal(0.0, x_std));
  // Recurrent matrix scaled for stability (spectral norm well below 1).
  const double h_std = 0.5 / std::sqrt(static_cast<double>(hidden_dim_));
  for (std::size_t i = 0; i < wh_.numel(); ++i)
    wh_[i] = static_cast<float>(rng.normal(0.0, h_std));
  for (auto& b : bias_) b = 0.0f;
  momentum_wx_.fill(0.0f);
  momentum_wh_.fill(0.0f);
  for (auto& m : momentum_bias_) m = 0.0f;
}

void ElmanRNN::forward_into(const Tensor& input, Tensor& output,
                            Workspace& workspace, uarch::TraceSink& sink,
                            KernelMode mode, ExecutionPath path) const {
  const auto [t_steps, d] = sequence_dims(input.shape());
  (void)d;
  if (output.rank() != 1 || output.dim(0) != hidden_dim_)
    output.resize({hidden_dim_});
  // The hidden state lives in the caller's output tensor; workspace
  // scratch holds the pre-activation accumulator.  Scratch contents are
  // unspecified, so h_0 = 0 must be established explicitly.
  output.fill(0.0f);
  Tensor& acc = workspace.scratch(0, hidden_dim_);

  kernels::RnnShape shape;
  shape.in = input.data();
  shape.wx = wx_.data();
  shape.wh = wh_.data();
  shape.bias = bias_.data();
  shape.h = output.data();
  shape.acc = acc.data();
  shape.t_steps = t_steps;
  shape.input_dim = input_dim_;
  shape.hidden_dim = hidden_dim_;

  if (kernels::select_path(sink, path) == ExecutionPath::kFast)
    kernels::rnn_fast(shape, mode);
  else if (sink.discards())
    kernels::rnn_scalar(shape, mode);
  else
    kernels::rnn_instrumented(shape, sink, mode);
}

void ElmanRNN::visit_buffers(const BufferVisitor& visit) const {
  visit("input_weights", wx_.data(), wx_.numel() * sizeof(float));
  visit("recurrent_weights", wh_.data(), wh_.numel() * sizeof(float));
  visit("bias", bias_.data(), bias_.size() * sizeof(float));
}

void ElmanRNN::symbolic_forward(kernels::SymbolicExecutor& exec,
                                const std::vector<std::size_t>& input_shape,
                                KernelMode mode, ExecutionPath path) const {
  const auto [t_steps, d] = sequence_dims(input_shape);
  (void)d;
  // Every path's trip count is the sequence length: a variable-length
  // deployment broadcasts it even under the countermeasure.
  exec.scales_with_shape();
  kernels::rnn_symbolic(
      {.t_steps = t_steps, .input_dim = input_dim_, .hidden_dim = hidden_dim_},
      exec, mode, path);
}

Tensor ElmanRNN::train_forward(const Tensor& input) {
  const auto [t_steps, d] = sequence_dims(input.shape());
  cached_input_ = input.reshaped({t_steps, d});
  hiddens_.assign(1, Tensor({hidden_dim_}));  // h_0 = 0
  const float* x = cached_input_.data();
  for (std::size_t t = 0; t < t_steps; ++t) {
    const Tensor& prev = hiddens_.back();
    Tensor h({hidden_dim_});
    for (std::size_t j = 0; j < hidden_dim_; ++j) h[j] = bias_[j];
    const float* xt = &x[t * input_dim_];
    for (std::size_t i = 0; i < input_dim_; ++i) {
      const float v = xt[i];
      if (v == 0.0f) continue;
      const float* row = &wx_.data()[i * hidden_dim_];
      for (std::size_t j = 0; j < hidden_dim_; ++j) h[j] += v * row[j];
    }
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      const float v = prev[i];
      if (v == 0.0f) continue;
      const float* row = &wh_.data()[i * hidden_dim_];
      for (std::size_t j = 0; j < hidden_dim_; ++j) h[j] += v * row[j];
    }
    for (std::size_t j = 0; j < hidden_dim_; ++j)
      h[j] = h[j] < 0.0f ? 0.0f : h[j];
    hiddens_.push_back(std::move(h));
  }
  return hiddens_.back();
}

Tensor ElmanRNN::backward(const Tensor& grad_output) {
  if (hiddens_.size() < 2)
    throw InvalidArgument("ElmanRNN::backward before train_forward");
  if (grad_output.numel() != hidden_dim_)
    throw InvalidArgument("ElmanRNN::backward: gradient shape mismatch");
  const std::size_t t_steps = hiddens_.size() - 1;
  Tensor grad_input(cached_input_.shape());
  Tensor grad_h = grad_output;  // dL/dh_t

  for (std::size_t t = t_steps; t-- > 0;) {
    const Tensor& h_next = hiddens_[t + 1];  // h_{t+1} == output of step t
    const Tensor& h_prev = hiddens_[t];
    // Through the ReLU: zero where the pre-activation was clipped.
    Tensor grad_pre({hidden_dim_});
    for (std::size_t j = 0; j < hidden_dim_; ++j)
      grad_pre[j] = h_next[j] > 0.0f ? grad_h[j] : 0.0f;

    for (std::size_t j = 0; j < hidden_dim_; ++j)
      grad_bias_[j] += grad_pre[j];

    const float* xt = &cached_input_.data()[t * input_dim_];
    for (std::size_t i = 0; i < input_dim_; ++i) {
      float acc = 0.0f;
      float* grow = &grad_wx_.data()[i * hidden_dim_];
      const float* row = &wx_.data()[i * hidden_dim_];
      for (std::size_t j = 0; j < hidden_dim_; ++j) {
        grow[j] += xt[i] * grad_pre[j];
        acc += row[j] * grad_pre[j];
      }
      grad_input[t * input_dim_ + i] = acc;
    }
    Tensor grad_h_prev({hidden_dim_});
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      float acc = 0.0f;
      float* grow = &grad_wh_.data()[i * hidden_dim_];
      const float* row = &wh_.data()[i * hidden_dim_];
      for (std::size_t j = 0; j < hidden_dim_; ++j) {
        grow[j] += h_prev[i] * grad_pre[j];
        acc += row[j] * grad_pre[j];
      }
      grad_h_prev[i] = acc;
    }
    grad_h = std::move(grad_h_prev);
  }
  return grad_input;
}

void ElmanRNN::sgd_step(float learning_rate, float momentum) {
  auto update = [&](Tensor& w, Tensor& gw, Tensor& mw) {
    for (std::size_t i = 0; i < w.numel(); ++i) {
      mw[i] =
          momentum * mw[i] - learning_rate * detail::clip_gradient(gw[i]);
      w[i] += mw[i];
      gw[i] = 0.0f;
    }
  };
  update(wx_, grad_wx_, momentum_wx_);
  update(wh_, grad_wh_, momentum_wh_);
  for (std::size_t j = 0; j < hidden_dim_; ++j) {
    momentum_bias_[j] = momentum * momentum_bias_[j] -
                        learning_rate * detail::clip_gradient(grad_bias_[j]);
    bias_[j] += momentum_bias_[j];
    grad_bias_[j] = 0.0f;
  }
}

void ElmanRNN::save_parameters(std::ostream& out) const {
  detail::write_floats(out, wx_.values());
  detail::write_floats(out, wh_.values());
  detail::write_floats(out, bias_);
}

void ElmanRNN::load_parameters(std::istream& in) {
  detail::read_floats(in, wx_.values());
  detail::read_floats(in, wh_.values());
  detail::read_floats(in, bias_);
}

}  // namespace sce::nn
