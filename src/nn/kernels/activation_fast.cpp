// Fast ReLU: the concrete instantiation of activation_fast.hpp's loop.
#include "nn/kernels/activation_fast.hpp"

#include "nn/kernels/activation.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/simd.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

void relu_fast(const float* in, float* out, std::size_t n) {
  FastDomain d;
  fast_kernel(d, in, out, n);
}

namespace {
const detail::KernelRegistration registration{
    {"relu", KernelMode::kDataDependent, ExecutionPath::kFast,
     "vector compare + blend, branch-free"},
    {"relu", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "vector compare + blend, branch-free"},
};
}  // namespace

}  // namespace sce::nn::kernels
