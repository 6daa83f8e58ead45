// Fast Dense: register-blocked input-stationary GEMV, one loop nest over
// a lane domain (domain.hpp).  Private to dense_fast.cpp (FastDomain) and
// dense_instrumented.cpp (SymbolicDomain).
//
// The instrumented kernel accumulates y[o] = bias[o] then, for i
// ascending, y[o] += x[i] * W[i][o] (skipping the whole row i when
// x[i] == 0 in data-dependent mode).  Each output is an independent
// accumulator, so vectorizing across o with i kept sequential preserves
// every output's rounding sequence exactly.  A tile of the output vector
// lives in registers across the entire input loop; the weight row slice
// is one contiguous vector load per tile vector.
//
// The data-dependent row skip stays a real branch: it elides the row's
// weight loads entirely, exactly like the scalar kernel, and skipping
// contributes nothing to any accumulator so the bits cannot differ.
#pragma once

#include "nn/kernels/dense.hpp"
#include "nn/kernels/domain.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

#ifdef SCE_HAVE_VECTOR_EXTENSIONS
/// One tile of NV vectors (NV * kLanes outputs) starting at o0.
template <std::size_t NV, typename D>
void gemv_tile(D& d, auto x, auto w, auto bias, auto y, const DenseShape& s,
               std::size_t o0, bool skip_zero) {
  typename D::Lanes acc[NV];
  for (std::size_t t = 0; t < NV; ++t)
    acc[t] = d.loadu(bias, o0 + t * kLanes);
  auto stream_row = [&](auto v, auto row) {
    const auto vv = d.broadcast(v);
    for (std::size_t t = 0; t < NV; ++t)
      acc[t] = acc[t] + vv * d.loadu(row, t * kLanes);
    d.retire(NV * kLanes * nn::detail::kMacInstructions);
    d.structural_branches(NV + 1);
  };
  // Two input rows per iteration: each row's contribution still lands in
  // ascending-i order per accumulator, so the rounding sequence — and
  // the bits — match the one-row-at-a-time instrumented loop exactly.
  std::size_t i = 0;
  for (; i + 2 <= s.in_features; i += 2) {
    const auto v0 = d.load(x, i);
    const auto v1 = d.load(x, i + 1);
    const auto row0 = w + (i * s.out_features + o0);
    // Hide the upcoming rows' memory latency behind this pair's
    // arithmetic; prefetching a row that ends up skipped is harmless.
    if (i + 4 < s.in_features)
      d.prefetch(w, (i + 4) * s.out_features + o0);
    d.unless_zero(SCE_KERNEL_SITE("dense fast row-skip (x[i]==0, even row)"),
                  skip_zero, v0, [&] { stream_row(v0, row0); });
    d.unless_zero(SCE_KERNEL_SITE("dense fast row-skip (x[i]==0, odd row)"),
                  skip_zero, v1,
                  [&] { stream_row(v1, row0 + s.out_features); });
  }
  for (; i < s.in_features; ++i) {
    const auto v = d.load(x, i);
    d.unless_zero(SCE_KERNEL_SITE("dense fast row-skip (x[i]==0, last row)"),
                  skip_zero, v,
                  [&] { stream_row(v, w + (i * s.out_features + o0)); });
  }
  for (std::size_t t = 0; t < NV; ++t)
    d.storeu(y, o0 + t * kLanes, acc[t]);
}
#endif

template <typename D>
void fast_kernel(D& d, const DenseShape& s, KernelMode mode) {
  const std::size_t in = s.in_features;
  const std::size_t out = s.out_features;
  const auto x = d.input(s.in);
  const auto w = d.param(s.weights, "weights", in * out);
  const auto bias = d.param(s.bias, "bias", out);
  const auto y = d.output(s.out, out);
  const bool skip_zero = mode == KernelMode::kDataDependent;
  std::size_t o0 = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  // Widest tile first: each tile re-streams the whole input vector, so a
  // wider tile amortizes the per-input broadcast and row-skip check over
  // more outputs (8 vector accumulators still fit the 16 ymm registers).
  for (; o0 + 8 * kLanes <= out; o0 += 8 * kLanes)
    gemv_tile<8>(d, x, w, bias, y, s, o0, skip_zero);
  for (; o0 + 4 * kLanes <= out; o0 += 4 * kLanes)
    gemv_tile<4>(d, x, w, bias, y, s, o0, skip_zero);
  for (; o0 + kLanes <= out; o0 += kLanes)
    gemv_tile<1>(d, x, w, bias, y, s, o0, skip_zero);
#endif
  if (o0 == out) return;
  // Tail outputs (the whole range without vector extensions), in the
  // tiles' row-skip shape: each output starts at its bias in `y`, then
  // each input guards one pass over the tail, so every output still
  // accumulates in ascending-i order.
  for (std::size_t o = o0; o < out; ++o) d.store(y, o, d.load(bias, o));
  for (std::size_t i = 0; i < in; ++i) {
    const auto v = d.load(x, i);
    d.unless_zero(
        SCE_KERNEL_SITE("dense fast row-skip (x[i]==0, tail outputs)"),
        skip_zero, v, [&] {
          for (std::size_t o = o0; o < out; ++o)
            d.store(y, o, d.load(y, o) + v * d.load(w, i * out + o));
          d.retire((out - o0) * nn::detail::kMacInstructions);
          d.structural_branches(out - o0 + 1);
        });
  }
}

}  // namespace
}  // namespace sce::nn::kernels
