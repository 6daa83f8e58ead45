// Fast softmax: the instrumented loop nest over its untraced domain.
// exp() dominates and the three passes are sequential reductions, so a
// vector kernel would buy nothing; one loop nest serves both paths, and
// the fast path's contract is derived from it.
#include "nn/kernels/registry.hpp"
#include "nn/kernels/softmax.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

void softmax_fast(const float* x, float* y, std::size_t n) {
  softmax_scalar(x, y, n);
}

namespace {
const detail::KernelRegistration registration{
    {"softmax", KernelMode::kDataDependent, ExecutionPath::kFast,
     "stable exp-normalize, trace-free"},
    {"softmax", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "stable exp-normalize, trace-free"},
};
}  // namespace

}  // namespace sce::nn::kernels
