// Fast Conv2D: the concrete instantiation of conv2d_fast.hpp's loop nest.
#include "nn/kernels/conv2d_fast.hpp"

#include "nn/kernels/registry.hpp"
#include "nn/kernels/simd.hpp"

namespace sce::nn::kernels {

void conv2d_fast(const Conv2DShape& s, Workspace& workspace,
                 ConvAlgorithm algorithm, KernelMode mode) {
  const std::size_t pixels = s.out_h * s.out_w;
  const std::size_t patch_len = s.in_channels * s.kernel * s.kernel;
  if (pixels == 0 || patch_len == 0) return;
  const Gemm policy = gemm_policy(s, algorithm, mode);
  // Same slot (and element count) as the instrumented im2col scratch,
  // transposed — a warmed plan switches paths without reallocating.
  float* pt = workspace.scratch(0, patch_len, pixels).data();
  float* vt = policy == Gemm::kMaskValid
                  ? workspace.scratch(1, s.kernel * s.kernel, pixels).data()
                  : nullptr;
  FastDomain d;
  fast_kernel(d, s, policy, pt, vt);
}

namespace {
const detail::KernelRegistration registration{
    {"conv2d.direct", KernelMode::kDataDependent, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled GEMM, lane-blend zero skip"},
    {"conv2d.direct", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled GEMM, validity-masked"},
    {"conv2d.im2col", KernelMode::kDataDependent, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled GEMM, lane-blend zero skip"},
    {"conv2d.im2col", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled dense GEMM"},
};
}  // namespace

}  // namespace sce::nn::kernels
