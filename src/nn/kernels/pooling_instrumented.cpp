// Instrumented pooling kernels: one loop nest each over an execution
// domain (domain.hpp), instantiated traced, untraced and symbolic.
#include "nn/kernels/pooling.hpp"

#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

using nn::detail::kCompareInstructions;
using nn::detail::kLoopOverhead;

template <typename D>
void maxpool_kernel(D& d, const Pool2DShape& s, KernelMode mode) {
  using Value = typename D::Value;
  const auto in = d.input(s.in);
  const auto out = d.output(s.out, s.channels * s.out_h * s.out_w);

  for (std::size_t c = 0; c < s.channels; ++c) {
    for (std::size_t oy = 0; oy < s.out_h; ++oy) {
      for (std::size_t ox = 0; ox < s.out_w; ++ox) {
        // The window's first element seeds the max and the scan starts
        // past it: no per-element first-element test, so the untraced
        // instantiation, which is also the fast path, stays a tight loop.
        const std::size_t base =
            (c * s.in_h + oy * s.window) * s.in_w + ox * s.window;
        Value best = d.load(in, base);
        d.retire(kLoopOverhead);
        for (std::size_t wy = 0; wy < s.window; ++wy) {
          const std::size_t row = base + wy * s.in_w;
          for (std::size_t wx = wy == 0 ? 1 : 0; wx < s.window; ++wx) {
            // Wy-major element order: the output's bits depend on it
            // (max ties between -0.0 and +0.0, NaN propagation).
            const Value v = d.load(in, row + wx);

            const auto update = d.greater(v, best);
            if (mode == KernelMode::kDataDependent) {
              // Which window element is the max depends on the data; the
              // update is a real conditional branch.
              d.branch(SCE_KERNEL_SITE("maxpool max-update branch"), update);
              d.retire(kCompareInstructions);
            } else {
              // Branchless max (cmov / maxss).
              d.retire(kCompareInstructions + 1);
            }
            best = d.select(update, v, best);
          }
        }
        d.store(out, (c * s.out_h + oy) * s.out_w + ox, best);
        d.structural_branches(s.window * s.window + s.window + 1);
      }
    }
  }
}

template <typename D>
void avgpool_kernel(D& d, const Pool2DShape& s) {
  using Value = typename D::Value;
  const auto in = d.input(s.in);
  const auto out = d.output(s.out, s.channels * s.out_h * s.out_w);
  const float inv_area = 1.0f / static_cast<float>(s.window * s.window);

  for (std::size_t c = 0; c < s.channels; ++c) {
    for (std::size_t oy = 0; oy < s.out_h; ++oy) {
      for (std::size_t ox = 0; ox < s.out_w; ++ox) {
        Value sum{};
        for (std::size_t wy = 0; wy < s.window; ++wy) {
          for (std::size_t wx = 0; wx < s.window; ++wx) {
            const std::size_t idx =
                (c * s.in_h + (oy * s.window + wy)) * s.in_w +
                (ox * s.window + wx);
            sum = sum + d.load(in, idx);
            d.retire(kLoopOverhead + 1);
          }
        }
        d.store(out, (c * s.out_h + oy) * s.out_w + ox, sum * inv_area);
        d.retire(1);
        d.structural_branches(s.window * s.window + s.window + 1);
      }
    }
  }
}

}  // namespace

void maxpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink,
                            KernelMode mode) {
  run_traced(sink, [&](auto& d) { maxpool_kernel(d, s, mode); });
}

void maxpool2d_scalar(const Pool2DShape& s, KernelMode mode) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  maxpool_kernel(d, s, mode);
}

void maxpool2d_symbolic(const Pool2DShape& s, SymbolicExecutor& exec,
                        KernelMode mode, ExecutionPath path) {
  SymbolicDomain d(exec);
  // The fast path's max is branchless in either mode (pooling_fast.cpp).
  maxpool_kernel(d, s, path == ExecutionPath::kFast
                           ? KernelMode::kConstantFlow
                           : mode);
}

void avgpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink) {
  run_traced(sink, [&](auto& d) { avgpool_kernel(d, s); });
}

void avgpool2d_scalar(const Pool2DShape& s) {
  uarch::DiscardSink sink;
  TracedDomain d(sink);
  avgpool_kernel(d, s);
}

void avgpool2d_symbolic(const Pool2DShape& s, SymbolicExecutor& exec,
                        ExecutionPath) {
  SymbolicDomain d(exec);
  avgpool_kernel(d, s);
}

namespace {
const detail::KernelRegistration registration{
    {"maxpool2d", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "windowed scan, per-element max-update branch traced"},
    {"maxpool2d", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "windowed scan, branchless max with fixed cost"},
    {"avgpool2d", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "windowed sum; data-independent by nature, modes identical"},
    {"avgpool2d", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "windowed sum; data-independent by nature, modes identical"},
};
}  // namespace

}  // namespace sce::nn::kernels
