// Softmax kernel family (numerically stable exp-normalize over a rank-1
// tensor).  Both kernel modes run identical code — softmax has no useful
// data-dependent shortcut — so the kernels take no mode parameter.  The
// fast kernel is the instrumented loop nest run untraced: the libm exp()
// calls dominate and the max/sum reductions are order-sensitive, so
// vectorizing would either change bits or buy nothing.
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "uarch/trace.hpp"

namespace sce::nn::kernels {

void softmax_instrumented(const float* in, float* out, std::size_t n,
                          uarch::TraceSink& sink);
void softmax_scalar(const float* in, float* out, std::size_t n);
void softmax_fast(const float* in, float* out, std::size_t n);

}  // namespace sce::nn::kernels
