// Instrumented softmax kernel: one loop nest over an execution domain
// (domain.hpp), instantiated traced, untraced and symbolic.
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/softmax.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

using nn::detail::kCompareInstructions;
using nn::detail::kLoopOverhead;

template <typename D>
void forward_kernel(D& d, const float* x_data, float* y_data,
                    std::size_t n) {
  using Value = typename D::Value;
  const auto x = d.input(x_data);
  const auto y = d.output(y_data, n);

  // The running-max compare compiles to a cmov: no branch event.
  Value max_v = d.value(x, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Value v = d.load(x, i);
    max_v = d.select(d.greater(v, max_v), v, max_v);
    d.retire(kCompareInstructions + 1);
  }
  Value sum{};
  for (std::size_t i = 0; i < n; ++i) {
    const Value e = d.exp(d.value(x, i) - max_v);
    sum = sum + e;
    d.store(y, i, e);
    // exp() costs ~20 instructions in a vectorized libm.
    d.retire(20);
  }
  for (std::size_t i = 0; i < n; ++i) {
    d.store(y, i, d.value(y, i) / sum);
    d.retire(kLoopOverhead + 1);
  }
  d.structural_branches(3 * n);
}

}  // namespace

void softmax_instrumented(const float* in, float* out, std::size_t n,
                          uarch::TraceSink& sink) {
  run_traced(sink, [&](auto& d) { forward_kernel(d, in, out, n); });
}

void softmax_scalar(const float* in, float* out, std::size_t n) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  forward_kernel(d, in, out, n);
}

void softmax_symbolic(std::size_t n, SymbolicExecutor& exec,
                      ExecutionPath) {
  SymbolicDomain d(exec);
  forward_kernel(d, nullptr, nullptr, n);
}

namespace {
const detail::KernelRegistration registration{
    {"softmax", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "stable exp-normalize; data-independent, modes identical"},
    {"softmax", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "stable exp-normalize; data-independent, modes identical"},
};
}  // namespace

}  // namespace sce::nn::kernels
