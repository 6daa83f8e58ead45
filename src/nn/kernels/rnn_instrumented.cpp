// Instrumented Elman RNN kernel and fast kernel's symbolic instantiation.
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/rnn.hpp"
#include "nn/kernels/rnn_fast.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

using nn::detail::kLoopOverhead;
using nn::detail::kMacInstructions;

template <typename D>
void forward_kernel(D& d, const RnnShape& s, KernelMode mode) {
  using Value = typename D::Value;
  const std::size_t input_dim = s.input_dim;
  const std::size_t hidden_dim = s.hidden_dim;
  const auto x = d.input(s.in);
  const auto wx = d.param(s.wx, "wx", input_dim * hidden_dim);
  const auto wh = d.param(s.wh, "wh", hidden_dim * hidden_dim);
  const auto bias = d.param(s.bias, "bias", hidden_dim);
  const auto h = d.output(s.h, hidden_dim);  // pre-zeroed h_0
  const auto acc = d.scratch(s.acc, "acc", hidden_dim);

  // acc += W^T v, input-stationary: row i streams into the accumulator
  // unless (data-dependent mode) v[i] is zero and the row is skipped.
  auto axpy_sweep = [&](const KernelSite& skip_site, auto v_src,
                        std::size_t dim, auto weights) {
    for (std::size_t i = 0; i < dim; ++i) {
      const Value v = d.load(v_src, i);
      const auto row = weights + i * hidden_dim;
      auto stream_row = [&] {
        for (std::size_t j = 0; j < hidden_dim; ++j) {
          const Value wv = d.load(row, j);
          d.store(acc, j, d.value(acc, j) + v * wv);
          d.retire(kMacInstructions + kLoopOverhead);
        }
        d.structural_branches(hidden_dim + 1);
      };
      if (mode == KernelMode::kDataDependent)
        d.if_else(skip_site, d.is_zero(v), [&] { d.retire(kLoopOverhead); },
                  stream_row);
      else
        stream_row();
    }
    d.structural_branches(dim);
  };

  for (std::size_t t = 0; t < s.t_steps; ++t) {
    // acc = b
    for (std::size_t j = 0; j < hidden_dim; ++j)
      d.store(acc, j, d.load(bias, j));
    d.structural_branches(hidden_dim);
    axpy_sweep(SCE_KERNEL_SITE("rnn input row-skip (x_t[i]==0)"),
               x + t * input_dim, input_dim, wx);
    // ReLU-sparse hidden state skips its rows too.  All reads of h
    // precede its rewrite below.
    axpy_sweep(SCE_KERNEL_SITE("rnn hidden row-skip (h[i]==0)"), h,
               hidden_dim, wh);
    // h = ReLU(acc)
    for (std::size_t j = 0; j < hidden_dim; ++j) {
      const Value v = d.load(acc, j);
      const auto negative = d.is_negative(v);
      if (mode == KernelMode::kDataDependent) {
        d.branch(SCE_KERNEL_SITE("rnn recurrent ReLU sign branch"),
                 negative);
        d.retire(kLoopOverhead);
      } else {
        d.retire(kLoopOverhead + 1);
      }
      d.store(h, j, d.select(negative, Value{}, v));
    }
    d.structural_branches(hidden_dim + 1);
  }
}

}  // namespace

void rnn_instrumented(const RnnShape& s, uarch::TraceSink& sink,
                      KernelMode mode) {
  run_traced(sink, [&](auto& d) { forward_kernel(d, s, mode); });
}

void rnn_scalar(const RnnShape& s, KernelMode mode) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  forward_kernel(d, s, mode);
}

void rnn_symbolic(const RnnShape& s, SymbolicExecutor& exec, KernelMode mode,
                  ExecutionPath path) {
  SymbolicDomain d(exec);
  if (path == ExecutionPath::kFast)
    fast_kernel(d, s, mode);
  else
    forward_kernel(d, s, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"elman-rnn", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "per-step scalar AXPY sweeps with row skips + ReLU branch, full trace"},
    {"elman-rnn", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "per-step scalar AXPY sweeps, every row streamed, branchless ReLU"},
};
}  // namespace

}  // namespace sce::nn::kernels
