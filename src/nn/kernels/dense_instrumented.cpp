// Instrumented Dense kernel (domain.hpp: traced, untraced and symbolic),
// and the symbolic instantiation of the fast one (dense_fast.hpp).
#include "nn/kernels/dense.hpp"
#include "nn/kernels/dense_fast.hpp"
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

using nn::detail::kLoopOverhead;
using nn::detail::kMacInstructions;

template <typename D>
void forward_kernel(D& d, const DenseShape& s, KernelMode mode) {
  using Value = typename D::Value;
  const std::size_t in = s.in_features;
  const std::size_t out = s.out_features;
  const auto x = d.input(s.in);
  const auto w = d.param(s.weights, "weights", in * out);
  const auto bias = d.param(s.bias, "bias", out);
  const auto y = d.output(s.out, out);

  // Accumulators initialized with the bias vector.
  for (std::size_t o = 0; o < out; ++o) d.store(y, o, d.load(bias, o));
  d.structural_branches(out);

  for (std::size_t i = 0; i < in; ++i) {
    const Value v = d.load(x, i);
    const auto row = w + i * out;
    auto stream_row = [&] {
      for (std::size_t o = 0; o < out; ++o) {
        const Value wv = d.load(row, o);
        d.store(y, o, d.value(y, o) + v * wv);
        d.retire(kMacInstructions + kLoopOverhead);
      }
      d.structural_branches(out + 1);
    };
    if (mode == KernelMode::kDataDependent) {
      // Sparse-GEMM row skip: a zero activation's whole weight row is
      // never touched and its inner loop never runs.
      d.if_else(SCE_KERNEL_SITE("dense row-skip (x[i]==0 elides the row)"),
                d.is_zero(v), [&] { d.retire(kLoopOverhead); }, stream_row);
    } else {
      stream_row();
    }
  }
  d.structural_branches(in);
}

}  // namespace

void dense_instrumented(const DenseShape& s, uarch::TraceSink& sink,
                        KernelMode mode) {
  run_traced(sink, [&](auto& d) { forward_kernel(d, s, mode); });
}

void dense_scalar(const DenseShape& s, KernelMode mode) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  forward_kernel(d, s, mode);
}

void dense_symbolic(const DenseShape& s, SymbolicExecutor& exec,
                    KernelMode mode, ExecutionPath path) {
  SymbolicDomain d(exec);
  if (path == ExecutionPath::kFast)
    fast_kernel(d, s, mode);
  else
    forward_kernel(d, s, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"dense", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "input-stationary scalar GEMV with sparse row skip, full trace"},
    {"dense", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "input-stationary scalar GEMV, every row streamed"},
};
}  // namespace

}  // namespace sce::nn::kernels
