// Fast Elman RNN: the same per-timestep phase structure with each AXPY
// sweep vectorized across the hidden dimension; one loop nest over a
// lane domain (domain.hpp), private to rnn_fast.cpp (FastDomain) and
// rnn_instrumented.cpp (SymbolicDomain).
//
// The accumulator stays in memory (scratch), because the phase order is
// semantically load-bearing: every read of h_{t-1} in the Wh sweep must
// happen before the ReLU phase overwrites h.  Within a sweep, i advances
// in the scalar order and each acc[j] is touched once per non-skipped i,
// so vectorizing across j changes nothing about any accumulator's
// rounding sequence.  Row skips (x_t[i] == 0, h_{t-1}[i] == 0) stay real
// scalar branches, exactly like the scalar kernel and the Dense fast
// path.
#pragma once

#include <cstddef>

#include "nn/kernels/domain.hpp"
#include "nn/kernels/rnn.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

template <typename D>
void fast_kernel(D& d, const RnnShape& s, KernelMode mode) {
  const std::size_t hidden = s.hidden_dim;
  const auto x = d.input(s.in);
  const auto wx = d.param(s.wx, "wx", s.input_dim * hidden);
  const auto wh = d.param(s.wh, "wh", hidden * hidden);
  const auto bias = d.param(s.bias, "bias", hidden);
  const auto h = d.output(s.h, hidden);  // pre-zeroed h_0
  const auto acc = d.scratch(s.acc, "acc", hidden);
  const bool skip_zero = mode == KernelMode::kDataDependent;

  // acc[j] += v * row[j] for all j — one vector load/store pair per block.
  auto axpy = [&](auto v, auto row) {
    std::size_t j = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
    const auto vv = d.broadcast(v);
    for (; j + kLanes <= hidden; j += kLanes)
      d.storeu(acc, j, d.loadu(acc, j) + vv * d.loadu(row, j));
#endif
    for (; j < hidden; ++j)
      d.store(acc, j, d.load(acc, j) + v * d.load(row, j));
    d.retire(hidden * nn::detail::kMacInstructions);
    d.structural_branches(hidden + 1);
  };
  auto sweep = [&](const KernelSite& skip_site, auto v_src, std::size_t dim,
                   auto weights) {
    for (std::size_t i = 0; i < dim; ++i) {
      const auto v = d.load(v_src, i);
      d.unless_zero(skip_site, skip_zero, v,
                    [&] { axpy(v, weights + i * hidden); });
    }
  };

  for (std::size_t t = 0; t < s.t_steps; ++t) {
    d.copy(acc, bias, hidden);
    sweep(SCE_KERNEL_SITE("rnn fast input row-skip (x_t[i]==0)"),
          x + t * s.input_dim, s.input_dim, wx);
    sweep(SCE_KERNEL_SITE("rnn fast hidden row-skip (h[i]==0)"), h, hidden,
          wh);
    // h = ReLU(acc): the same `v < 0 ? 0 : v` blend as the ReLU layer.
    std::size_t j = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
    const auto zero = d.broadcast(d.constant(0.0f));
    for (; j + kLanes <= hidden; j += kLanes) {
      const auto v = d.loadu(acc, j);
      d.storeu(h, j, d.select(v < zero, zero, v));
    }
#endif
    for (; j < hidden; ++j) {
      const auto v = d.load(acc, j);
      d.store(h, j, d.select(d.is_negative(v), d.constant(0.0f), v));
    }
  }
}

}  // namespace
}  // namespace sce::nn::kernels
