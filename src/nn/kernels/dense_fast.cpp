// Fast Dense: the concrete instantiation of dense_fast.hpp's loop nest.
#include "nn/kernels/dense_fast.hpp"

#include "nn/kernels/registry.hpp"
#include "nn/kernels/simd.hpp"

namespace sce::nn::kernels {

void dense_fast(const DenseShape& s, KernelMode mode) {
  FastDomain d;
  fast_kernel(d, s, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"dense", KernelMode::kDataDependent, ExecutionPath::kFast,
     "register-blocked GEMV, scalar per-input row-skip branch kept"},
    {"dense", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "register-blocked GEMV, every row streamed"},
};
}  // namespace

}  // namespace sce::nn::kernels
