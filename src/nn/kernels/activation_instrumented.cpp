// Instrumented ReLU kernel (domain.hpp: traced, untraced and symbolic),
// and the symbolic instantiation of the fast one (activation_fast.hpp).
#include "nn/kernels/activation.hpp"
#include "nn/kernels/activation_fast.hpp"
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

using nn::detail::kLoopOverhead;

template <typename D>
void forward_kernel(D& d, const float* in_data, float* out_data,
                    std::size_t n, KernelMode mode) {
  using Value = typename D::Value;
  const auto in = d.input(in_data);
  const auto out = d.output(out_data, n);

  for (std::size_t i = 0; i < n; ++i) {
    const Value v = d.load(in, i);
    const auto negative = d.is_negative(v);
    if (mode == KernelMode::kDataDependent) {
      // `if (v < 0) out = 0; else out = v;` compiled as a branch: whether
      // it is taken depends on the sign of the activation.
      d.branch(SCE_KERNEL_SITE("relu sign branch (v < 0)"), negative);
      d.retire(kLoopOverhead);
    } else {
      // Branchless maxss(v, 0).
      d.retire(kLoopOverhead + 1);
    }
    d.store(out, i, d.select(negative, Value{}, v));
  }
  d.structural_branches(n);
}

}  // namespace

void relu_instrumented(const float* in, float* out, std::size_t n,
                       uarch::TraceSink& sink, KernelMode mode) {
  run_traced(sink, [&](auto& d) { forward_kernel(d, in, out, n, mode); });
}

void relu_scalar(const float* in, float* out, std::size_t n,
                 KernelMode mode) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  forward_kernel(d, in, out, n, mode);
}

void relu_symbolic(std::size_t n, SymbolicExecutor& exec, KernelMode mode,
                   ExecutionPath path) {
  SymbolicDomain d(exec);
  if (path == ExecutionPath::kFast)
    fast_kernel(d, nullptr, nullptr, n);
  else
    forward_kernel(d, nullptr, nullptr, n, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"relu", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "scalar loop, per-element sign branch traced"},
    {"relu", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "scalar loop, branchless max with fixed cost"},
};
}  // namespace

}  // namespace sce::nn::kernels
