// Fast ReLU: one vector compare + blend per lane group, one loop over a
// lane domain (domain.hpp), private to activation_fast.cpp (FastDomain)
// and activation_instrumented.cpp (SymbolicDomain).  The scalar kernels
// compute `v < 0 ? 0 : v` in both modes; the lane-wise blend reproduces
// that exactly (-0.0 and NaN both fail `v < 0` and pass through
// unchanged, as in the scalar kernel).
#pragma once

#include <cstddef>

#include "nn/kernels/domain.hpp"

namespace sce::nn::kernels {
namespace {

template <typename D>
void fast_kernel(D& d, const float* in_data, float* out_data, std::size_t n) {
  const auto in = d.input(in_data);
  const auto out = d.output(out_data, n);
  std::size_t i = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  const auto zero = d.broadcast(d.constant(0.0f));
  for (; i + kLanes <= n; i += kLanes) {
    const auto v = d.loadu(in, i);
    d.storeu(out, i, d.select(v < zero, zero, v));
  }
#endif
  for (; i < n; ++i) {
    const auto v = d.load(in, i);
    d.store(out, i, d.select(d.is_negative(v), d.constant(0.0f), v));
  }
}

}  // namespace
}  // namespace sce::nn::kernels
