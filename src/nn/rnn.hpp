// Elman recurrent layer — the paper's future-work direction ("explore the
// vulnerabilities in other deep learning models").
//
//   h_t = ReLU(Wx x_t + Wh h_{t-1} + b),   h_0 = 0
//
// consuming a {T, input_dim} sequence (a leading singleton channel axis is
// accepted) and emitting the final hidden state {hidden_dim}.
//
// Side-channel-wise RNNs add a leak CNNs do not have: the *number of
// timesteps* scales every counter linearly, so variable-length inputs
// broadcast their length; and the recurrent ReLU sparsity gates the
// data-dependent row-skipping of both weight matrices each step.
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

class ElmanRNN final : public Layer {
 public:
  ElmanRNN(std::size_t input_dim, std::size_t hidden_dim);

  std::string name() const override { return "elman-rnn"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void sgd_step(float learning_rate, float momentum) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;
  std::size_t parameter_count() const override;
  void save_parameters(std::ostream& out) const override;
  void load_parameters(std::istream& in) override;
  void initialize(util::Rng& rng) override;

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Data-dependent: zero-skipping on both weight matrices (input rows
  /// and ReLU-sparse hidden rows) plus the recurrent sign branch — every
  /// trace aspect varies.  In both modes the trace additionally scales
  /// with the timestep count, so variable-length deployments broadcast
  /// their sequence length even under the countermeasure; the symbolic
  /// run reports that scaling (SymbolicExecutor::scales_with_shape).  The
  /// fast kernel keeps the row-skip branches in data-dependent mode, so
  /// it derives the same claims as the instrumented one.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

  void visit_buffers(const BufferVisitor& visit) const override;

  Tensor& input_weights() { return wx_; }
  Tensor& recurrent_weights() { return wh_; }

 private:
  /// Normalize {T, D} / {1, T, D} to (T, D); throws on mismatch.
  std::pair<std::size_t, std::size_t> sequence_dims(
      const std::vector<std::size_t>& shape) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Tensor wx_;                // {input_dim, hidden}
  Tensor wh_;                // {hidden, hidden}
  std::vector<float> bias_;  // {hidden}

  // Training state (BPTT caches).
  Tensor cached_input_;          // {T, D}
  std::vector<Tensor> hiddens_;  // h_0 .. h_T, each {hidden}
  Tensor grad_wx_;
  Tensor grad_wh_;
  std::vector<float> grad_bias_;
  Tensor momentum_wx_;
  Tensor momentum_wh_;
  std::vector<float> momentum_bias_;
};

}  // namespace sce::nn
