// Instrumented Conv2D kernels — the leakage ground truth.
//
// Every sink event (loads, the zero-skip branch, retire bookkeeping,
// structural back-edges) and the loop order are pinned by trace tests and
// the oracle cross-check.  Each kernel is one loop nest over an execution
// domain (domain.hpp): the simulated-machine and TraceSink instantiations
// serve observing sinks, the DiscardSink instantiation compiles the trace
// calls away and is the scalar path the fast kernels are measured
// against, and the symbolic instantiations, here and of conv2d_fast.hpp,
// are the models the analyzer derives the contracts from.
#include "nn/kernels/conv2d.hpp"
#include "nn/conv.hpp"
#include "nn/kernels/conv2d_fast.hpp"
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

using nn::detail::kLoopOverhead;
using nn::detail::kMacInstructions;

/// Input coordinate of output position `o`, tap `k`, or -1 when it falls
/// in the implicit zero padding (public: index arithmetic only).
std::ptrdiff_t tap(std::size_t o, std::size_t k, const Conv2DShape& s,
                   std::size_t limit) {
  const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(o * s.stride + k) -
                           static_cast<std::ptrdiff_t>(s.padding);
  return i < static_cast<std::ptrdiff_t>(limit) ? i : -1;
}

template <typename D>
void forward_direct(D& d, const Conv2DShape& s, KernelMode mode) {
  using Value = typename D::Value;
  const std::size_t in_h = s.in_h;
  const std::size_t in_w = s.in_w;
  const std::size_t out_h = s.out_h;
  const std::size_t out_w = s.out_w;
  const std::size_t patch_len = s.in_channels * s.kernel * s.kernel;
  const auto in = d.input(s.in);
  const auto weights = d.param(s.weights, "weights",
                               s.out_channels * patch_len);
  const auto bias = d.param(s.bias, "bias", s.out_channels);
  const auto out = d.output(s.out, s.out_channels * out_h * out_w);

  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        Value acc = d.load(bias, oc);
        for (std::size_t ic = 0; ic < s.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < s.kernel; ++ky) {
            const std::ptrdiff_t iy = tap(oy, ky, s, in_h);
            if (iy < 0) continue;
            const std::size_t in_row_base =
                (ic * in_h + static_cast<std::size_t>(iy)) * in_w;
            const std::size_t w_row_base =
                ((oc * s.in_channels + ic) * s.kernel + ky) * s.kernel;
            for (std::size_t kx = 0; kx < s.kernel; ++kx) {
              const std::ptrdiff_t ix = tap(ox, kx, s, in_w);
              if (ix < 0) continue;  // implicit zero padding: nothing loaded
              const Value v =
                  d.load(in, in_row_base + static_cast<std::size_t>(ix));
              auto mac = [&] {
                acc = acc + v * d.load(weights, w_row_base + kx);
                d.retire(kMacInstructions + kLoopOverhead);
              };
              if (mode == KernelMode::kDataDependent) {
                // Zero-skipping: a zero activation contributes nothing, so
                // the weight load and MAC are elided behind a branch.
                d.if_else(
                    SCE_KERNEL_SITE("conv2d zero-skip (elides weight + MAC)"),
                    d.is_zero(v), [&] { d.retire(kLoopOverhead); }, mac);
              } else {
                mac();
              }
            }
          }
        }
        d.store(out, (oc * out_h + oy) * out_w + ox, acc);
        d.retire(kLoopOverhead);
        // Loop back-edges for the kx/ky/ic loops of this output pixel.
        d.structural_branches(patch_len + s.in_channels * s.kernel +
                              s.in_channels + 1);
      }
    }
  }
}

/// `patch_data` is scratch of out_h*out_w rows by patch_len columns.
template <typename D>
void forward_im2col(D& d, const Conv2DShape& s, float* patch_data,
                    KernelMode mode) {
  using Value = typename D::Value;
  const std::size_t in_h = s.in_h;
  const std::size_t in_w = s.in_w;
  const std::size_t out_w = s.out_w;
  const std::size_t pixels = s.out_h * out_w;
  const std::size_t patch_len = s.in_channels * s.kernel * s.kernel;
  const auto in = d.input(s.in);
  const auto weights = d.param(s.weights, "weights",
                               s.out_channels * patch_len);
  const auto bias = d.param(s.bias, "bias", s.out_channels);
  const auto patches = d.scratch(patch_data, "patches", pixels * patch_len);
  const auto out = d.output(s.out, s.out_channels * pixels);

  // Phase 1: materialize the patch matrix (the "im2col" buffer).  Every
  // input element inside a window is loaded and stored once per window it
  // appears in — the extra memory traffic that distinguishes this
  // strategy from the direct loop nest.  Every element of the scratch is
  // written here before phase 2 reads it.
  for (std::size_t oy = 0; oy < s.out_h; ++oy) {
    for (std::size_t ox = 0; ox < out_w; ++ox) {
      const std::size_t row = oy * out_w + ox;
      std::size_t column = 0;
      for (std::size_t ic = 0; ic < s.in_channels; ++ic) {
        for (std::size_t ky = 0; ky < s.kernel; ++ky) {
          for (std::size_t kx = 0; kx < s.kernel; ++kx, ++column) {
            const std::ptrdiff_t iy = tap(oy, ky, s, in_h);
            const std::ptrdiff_t ix = tap(ox, kx, s, in_w);
            Value v{};
            if (iy >= 0 && ix >= 0) {
              v = d.load(in, (ic * in_h + static_cast<std::size_t>(iy)) *
                                     in_w +
                                 static_cast<std::size_t>(ix));
            }
            d.store(patches, row * patch_len + column, v);
            d.retire(kLoopOverhead);
          }
        }
      }
      d.structural_branches(patch_len + s.kernel + s.in_channels + 1);
    }
  }

  // Phase 2: GEMM — output[oc][pixel] = bias[oc] + W[oc][:] . P[pixel][:].
  // Weight rows are exactly the {out, in, k, k} layout flattened.
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
      Value acc = d.load(bias, oc);
      const auto patch_row = patches + pixel * patch_len;
      const auto weight_row = weights + oc * patch_len;
      for (std::size_t j = 0; j < patch_len; ++j) {
        const Value v = d.load(patch_row, j);
        auto mac = [&] {
          acc = acc + v * d.load(weight_row, j);
          d.retire(kMacInstructions + kLoopOverhead);
        };
        if (mode == KernelMode::kDataDependent) {
          d.if_else(SCE_KERNEL_SITE("conv2d im2col GEMM zero-skip"),
                    d.is_zero(v), [&] { d.retire(kLoopOverhead); }, mac);
        } else {
          mac();
        }
      }
      d.store(out, oc * pixels + pixel, acc);
      d.structural_branches(patch_len + 1);
    }
  }
}

float* patch_scratch(const Conv2DShape& s, Workspace& workspace) {
  return workspace
      .scratch(0, s.out_h * s.out_w, s.in_channels * s.kernel * s.kernel)
      .data();
}

}  // namespace

void conv2d_direct_instrumented(const Conv2DShape& s, uarch::TraceSink& sink,
                                KernelMode mode) {
  run_traced(sink, [&](auto& d) { forward_direct(d, s, mode); });
}

void conv2d_direct_scalar(const Conv2DShape& s, KernelMode mode) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  forward_direct(d, s, mode);
}

void conv2d_im2col_instrumented(const Conv2DShape& s, Workspace& workspace,
                                uarch::TraceSink& sink, KernelMode mode) {
  run_traced(sink, [&](auto& d) {
    forward_im2col(d, s, patch_scratch(s, workspace), mode);
  });
}

void conv2d_im2col_scalar(const Conv2DShape& s, Workspace& workspace,
                          KernelMode mode) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  forward_im2col(d, s, patch_scratch(s, workspace), mode);
}

void conv2d_symbolic(const Conv2DShape& s, ConvAlgorithm algorithm,
                     SymbolicExecutor& exec, KernelMode mode,
                     ExecutionPath path) {
  SymbolicDomain d(exec);
  if (path == ExecutionPath::kFast)
    fast_kernel(d, s, gemm_policy(s, algorithm, mode), nullptr, nullptr);
  else if (algorithm == ConvAlgorithm::kIm2col)
    forward_im2col(d, s, nullptr, mode);
  else
    forward_direct(d, s, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"conv2d.direct", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "scalar loop nest, zero-skip branch per element, full trace"},
    {"conv2d.direct", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "scalar loop nest, every in-bounds element does full work"},
    {"conv2d.im2col", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "patch-matrix gather + scalar GEMM with zero-skip branch"},
    {"conv2d.im2col", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "patch-matrix gather + dense scalar GEMM"},
};
}  // namespace

}  // namespace sce::nn::kernels
