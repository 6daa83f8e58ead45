// Fast pooling: the instrumented loop nests run over their untraced
// domain, branchless (constant-flow) in both modes.  The window gather is
// strided, with no contiguous lanes to load, and pooling is noise next to
// conv/dense, so a vector kernel would buy nothing; one loop nest serves
// both paths, and the fast path's contract is derived from it.
#include "nn/kernels/pooling.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

void maxpool2d_fast(const Pool2DShape& s) {
  maxpool2d_scalar(s, KernelMode::kConstantFlow);
}

void avgpool2d_fast(const Pool2DShape& s) { avgpool2d_scalar(s); }

namespace {
const detail::KernelRegistration registration{
    {"maxpool2d", KernelMode::kDataDependent, ExecutionPath::kFast,
     "scalar windowed max, branchless cmov, trace-free"},
    {"maxpool2d", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "scalar windowed max, branchless cmov, trace-free"},
    {"avgpool2d", KernelMode::kDataDependent, ExecutionPath::kFast,
     "scalar windowed sum, trace-free"},
    {"avgpool2d", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "scalar windowed sum, trace-free"},
};
}  // namespace

}  // namespace sce::nn::kernels
