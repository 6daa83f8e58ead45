// Fast Conv2D: transposed im2col + register-tiled GEMM, pinned
// bit-for-bit to the instrumented kernels.  One loop nest over a lane
// domain (domain.hpp), private to conv2d_fast.cpp (FastDomain) and
// conv2d_instrumented.cpp (SymbolicDomain).
//
// Both instrumented algorithms accumulate, per output element (oc, p):
//
//   acc = bias[oc]; then += v_j * w_j for j ascending over the patch
//   (j = (ic, ky, kx) flattened)
//
// with three policies for which j contribute:
//   * data-dependent (both algorithms): j with v_j != 0  — the zero-skip
//     keeps the accumulator bits unchanged (out-of-bounds patch entries
//     are zero, so the direct kernel's OOB skip coincides with it);
//   * constant-flow im2col: every j (padding zeros are added as 0 * w);
//   * constant-flow direct: in-bounds j only (padding positions are
//     never touched, so with padding > 0 a validity mask is required —
//     adding 0 * w instead would flip a -0.0 accumulator to +0.0).
//
// The fast kernel reproduces exactly that: the patch matrix is stored
// transposed (patch index major) so 8 consecutive *pixels* form one
// vector lane group, j advances sequentially — every lane's accumulation
// order equals the scalar kernel's — and skips are lane blends that keep
// the old accumulator bits.  Multiplies and adds stay separate (the
// library builds with -ffp-contract=off), so each step rounds exactly
// like the scalar `acc += v * w`.
#pragma once

#include <cstddef>
#include <utility>

#include "nn/conv.hpp"
#include "nn/kernels/conv2d.hpp"
#include "nn/kernels/domain.hpp"

namespace sce::nn::kernels {
namespace {

/// Which j indices contribute to an output accumulator.
enum class Gemm { kDense, kSkipZero, kMaskValid };

Gemm gemm_policy(const Conv2DShape& s, ConvAlgorithm algorithm,
                 KernelMode mode) {
  // Both algorithms skip exactly the zero patch entries (out-of-bounds
  // entries are zero, so the direct kernel's bounds skip is subsumed).
  if (mode == KernelMode::kDataDependent) return Gemm::kSkipZero;
  // Constant-flow direct never touches padding positions; mask them so
  // a -0.0 accumulator is not perturbed by adding +0.0.
  if (algorithm == ConvAlgorithm::kDirect && s.padding > 0)
    return Gemm::kMaskValid;
  return Gemm::kDense;
}

/// Fill `pt` with the transposed patch matrix Pt[patch_len][pixels]
/// (out-of-bounds positions zero-filled, exactly the values the
/// instrumented im2col phase would store row-major).
template <typename D>
void fill_patches_transposed(D& d, const Conv2DShape& s, auto in, auto pt,
                             std::size_t pixels) {
  const bool contiguous = s.stride == 1 && s.padding == 0;
  std::size_t j = 0;
  for (std::size_t ic = 0; ic < s.in_channels; ++ic) {
    for (std::size_t ky = 0; ky < s.kernel; ++ky) {
      for (std::size_t kx = 0; kx < s.kernel; ++kx, ++j) {
        const auto row = pt + j * pixels;
        if (contiguous) {
          // Valid convolution, unit stride: each output row is a
          // contiguous slice of the input row.
          for (std::size_t oy = 0; oy < s.out_h; ++oy)
            d.copy(row + oy * s.out_w,
                   in + ((ic * s.in_h + oy + ky) * s.in_w + kx), s.out_w);
          continue;
        }
        for (std::size_t oy = 0; oy < s.out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
              static_cast<std::ptrdiff_t>(s.padding);
          const auto out_row = row + oy * s.out_w;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.in_h)) {
            for (std::size_t ox = 0; ox < s.out_w; ++ox)
              d.store(out_row, ox, d.constant(0.0f));
            continue;
          }
          const auto in_row =
              in + (ic * s.in_h + static_cast<std::size_t>(iy)) * s.in_w;
          for (std::size_t ox = 0; ox < s.out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * s.stride + kx) -
                static_cast<std::ptrdiff_t>(s.padding);
            d.store(out_row, ox,
                    (ix >= 0 && ix < static_cast<std::ptrdiff_t>(s.in_w))
                        ? d.load(in_row, static_cast<std::size_t>(ix))
                        : d.constant(0.0f));
          }
        }
      }
    }
  }
}

/// Validity mask Vt[kernel*kernel][pixels] (1.0 in-bounds, 0.0 padding),
/// shared across input channels.
template <typename D>
void fill_validity(D& d, const Conv2DShape& s, auto vt, std::size_t pixels) {
  std::size_t kk = 0;
  for (std::size_t ky = 0; ky < s.kernel; ++ky) {
    for (std::size_t kx = 0; kx < s.kernel; ++kx, ++kk) {
      const auto row = vt + kk * pixels;
      for (std::size_t oy = 0; oy < s.out_h; ++oy) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
            static_cast<std::ptrdiff_t>(s.padding);
        const bool y_ok =
            iy >= 0 && iy < static_cast<std::ptrdiff_t>(s.in_h);
        for (std::size_t ox = 0; ox < s.out_w; ++ox) {
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * s.stride + kx) -
              static_cast<std::ptrdiff_t>(s.padding);
          const bool ok =
              y_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(s.in_w);
          d.store(row, oy * s.out_w + ox, d.constant(ok ? 1.0f : 0.0f));
        }
      }
    }
  }
}

/// The handles and extents the GEMM reads.
template <typename D>
struct GemmOperands {
  using Param = decltype(std::declval<D&>().input(nullptr));
  using Scratch = decltype(std::declval<D&>().output(nullptr, 0));
  Param weights;
  Param bias;
  Scratch pt;
  Scratch vt;  // the validity mask, read by Gemm::kMaskValid only
  Scratch out;
  std::size_t pixels;
  std::size_t patch_len;
  std::size_t k2;
};

/// GEMM over one output-channel tile of TC channels: 8 pixels per vector
/// step, TC accumulators live in registers across the whole j loop.
template <Gemm policy, std::size_t TC, typename D>
void gemm_tile(D& d, const GemmOperands<D>& g, std::size_t oc0) {
  std::size_t p = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  for (; p + kLanes <= g.pixels; p += kLanes) {
    typename D::Lanes acc[TC];
    for (std::size_t t = 0; t < TC; ++t)
      acc[t] = d.broadcast(d.load(g.bias, oc0 + t));
    std::size_t kk = 0;
    for (std::size_t j = 0; j < g.patch_len; ++j) {
      const auto v = d.loadu(g.pt, j * g.pixels + p);
      typename D::Lanes valid{};
      if constexpr (policy == Gemm::kMaskValid)
        valid = d.loadu(g.vt, kk * g.pixels + p);
      for (std::size_t t = 0; t < TC; ++t) {
        const auto w =
            d.broadcast(d.load(g.weights, (oc0 + t) * g.patch_len + j));
        if constexpr (policy == Gemm::kDense)
          acc[t] = acc[t] + v * w;
        else if constexpr (policy == Gemm::kSkipZero)
          acc[t] = d.mac_skip_zero(acc[t], v, w);
        else
          acc[t] = d.mac_where(valid, acc[t], v, w);
      }
      if (++kk == g.k2) kk = 0;
    }
    for (std::size_t t = 0; t < TC; ++t)
      d.storeu(g.out, (oc0 + t) * g.pixels + p, acc[t]);
  }
#endif
  // Pixel tail (and the whole range without vector extensions): the same
  // j-ordered accumulation, one scalar lane at a time.
  for (; p < g.pixels; ++p) {
    for (std::size_t t = 0; t < TC; ++t) {
      auto acc = d.load(g.bias, oc0 + t);
      std::size_t kk = 0;
      for (std::size_t j = 0; j < g.patch_len; ++j) {
        const auto v = d.load(g.pt, j * g.pixels + p);
        const auto w = d.load(g.weights, (oc0 + t) * g.patch_len + j);
        if constexpr (policy == Gemm::kDense)
          acc = acc + v * w;
        else if constexpr (policy == Gemm::kSkipZero)
          acc = d.mac_skip_zero(acc, v, w);
        else
          acc = d.mac_where(d.load(g.vt, kk * g.pixels + p), acc, v, w);
        if (++kk == g.k2) kk = 0;
      }
      d.store(g.out, (oc0 + t) * g.pixels + p, acc);
    }
  }
}

template <Gemm policy, typename D>
void gemm(D& d, const Conv2DShape& s, const GemmOperands<D>& g) {
  std::size_t oc0 = 0;
  for (; oc0 + 4 <= s.out_channels; oc0 += 4)
    gemm_tile<policy, 4>(d, g, oc0);
  switch (s.out_channels - oc0) {
    case 3:
      gemm_tile<policy, 3>(d, g, oc0);
      break;
    case 2:
      gemm_tile<policy, 2>(d, g, oc0);
      break;
    case 1:
      gemm_tile<policy, 1>(d, g, oc0);
      break;
    default:
      break;
  }
}

/// `pt_data` is scratch of patch_len x pixels, `vt_data` of
/// kernel*kernel x pixels (Gemm::kMaskValid only).
template <typename D>
void fast_kernel(D& d, const Conv2DShape& s, Gemm policy, float* pt_data,
                 float* vt_data) {
  const std::size_t pixels = s.out_h * s.out_w;
  const std::size_t patch_len = s.in_channels * s.kernel * s.kernel;
  const std::size_t k2 = s.kernel * s.kernel;
  if (pixels == 0 || patch_len == 0) return;
  const auto in = d.input(s.in);
  GemmOperands<D> g{d.param(s.weights, "weights", s.out_channels * patch_len),
                    d.param(s.bias, "bias", s.out_channels),
                    d.scratch(pt_data, "patches_t", patch_len * pixels),
                    {},
                    d.output(s.out, s.out_channels * pixels),
                    pixels,
                    patch_len,
                    k2};
  fill_patches_transposed(d, s, in, g.pt, pixels);
  switch (policy) {
    case Gemm::kSkipZero:
      gemm<Gemm::kSkipZero>(d, s, g);
      break;
    case Gemm::kMaskValid:
      g.vt = d.scratch(vt_data, "validity", k2 * pixels);
      fill_validity(d, s, g.vt, pixels);
      gemm<Gemm::kMaskValid>(d, s, g);
      break;
    case Gemm::kDense:
      gemm<Gemm::kDense>(d, s, g);
      break;
  }
}

}  // namespace
}  // namespace sce::nn::kernels
