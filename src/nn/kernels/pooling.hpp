// Pooling kernel family: MaxPool2D and AvgPool2D over non-overlapping
// square windows (stride == window, trailing remainder dropped).
//
// Window elements are gathered at stride `window` per output pixel, which
// defeats contiguous vector loads, and pooling is a vanishing fraction of
// inference cost next to conv/dense — so the fast kernels are the
// instrumented loop nests run untraced, bit-identical by construction.
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "uarch/trace.hpp"

namespace sce::nn {
enum class KernelMode;
}

namespace sce::nn::kernels {

/// Input is CHW; output is {channels, out_h, out_w} with
/// out_h = in_h / window, out_w = in_w / window.
struct Pool2DShape {
  const float* in = nullptr;
  float* out = nullptr;
  std::size_t channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t out_h = 0;
  std::size_t out_w = 0;
  std::size_t window = 0;
};

void maxpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink,
                            KernelMode mode);
void maxpool2d_scalar(const Pool2DShape& s, KernelMode mode);
void maxpool2d_fast(const Pool2DShape& s);

/// AvgPool has no data-dependent behaviour in either mode; the mode
/// parameter is deliberately absent.
void avgpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink);
void avgpool2d_scalar(const Pool2DShape& s);
void avgpool2d_fast(const Pool2DShape& s);

}  // namespace sce::nn::kernels
