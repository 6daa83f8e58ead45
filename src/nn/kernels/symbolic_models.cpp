// Symbolic models of the fast kernels.
//
// Instrumented kernels need no model here: each is one loop nest over an
// execution domain, and its SymbolicDomain instantiation is its model
// (see domain.hpp).  The fast kernels are GCC vector code that does not
// template over a domain, so each keeps a hand-written model that mirrors
// the source structure of *_fast.cpp: lane blends are branchless, the
// scalar row-skip branches of dense/rnn survive, and the loops inside a
// skipped row count as structural branches (the conservative
// source-level view; an unrolling compiler can only remove branches, and
// the elided loads alone already carry the leak).
//
// Trip counts are concrete; only the data is symbolic.  Only the
// geometry of the kernel shape structs is read, never their pointers.
#include "nn/kernels/symbolic.hpp"

#include <algorithm>
#include <cstring>

#include "nn/kernels/conv2d.hpp"
#include "nn/kernels/dense.hpp"
#include "nn/kernels/pooling.hpp"
#include "nn/kernels/rnn.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

namespace {

using nn::detail::kCompareInstructions;
using nn::detail::kLoopOverhead;
using nn::detail::kMacInstructions;

bool in_bounds(std::size_t o, std::size_t stride, std::size_t k,
               std::size_t padding, std::size_t limit) {
  const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(o * stride + k) -
                           static_cast<std::ptrdiff_t>(padding);
  return i >= 0 && i < static_cast<std::ptrdiff_t>(limit);
}

std::size_t in_index(std::size_t o, std::size_t stride, std::size_t k,
                     std::size_t padding) {
  return o * stride + k - padding;
}

}  // namespace

// ---------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------

void dense_fast_model(const DenseShape& g, SymbolicExecutor& exec,
                      KernelMode mode) {
  const std::size_t in = g.in_features;
  const std::size_t out = g.out_features;
  const SymBuffer x = exec.input_buffer();
  const SymBuffer w = exec.param_buffer("weights", in * out);
  const SymBuffer b = exec.param_buffer("bias", out);
  const SymBuffer y = exec.output_buffer(out);
  const bool skip_zero = mode == KernelMode::kDataDependent;

  // Register-blocked GEMV: accumulator tiles initialized from the bias,
  // per-input broadcast, per-input scalar row-skip branch guarding the
  // row's vector loads and FMAs (dense_fast.cpp gemv_tile).  Tile widths
  // do not matter for derivation; one pass over the outputs per input
  // captures the access structure.
  for (std::size_t o = 0; o < out; ++o) exec.assign(y, o, exec.load(b, o));
  for (std::size_t i = 0; i < in; ++i) {
    const SymValue v = exec.load(x, i);
    if (skip_zero) {
      exec.if_else(
          SCE_SYM_SITE("dense fast row-skip (scalar branch, gemv_tile)"), v,
          [&] {},
          [&] {
            for (std::size_t o = 0; o < out; ++o) {
              const SymValue wv = exec.load(w, i * out + o);
              exec.assign(y, o, join(exec.value(y, o), v, wv));
              exec.retire(kMacInstructions);
            }
            // The row's vector-lane loop back-edges (source level).
            exec.structural_branches(out + 1);
          });
    } else {
      for (std::size_t o = 0; o < out; ++o) {
        const SymValue wv = exec.load(w, i * out + o);
        exec.assign(y, o, join(exec.value(y, o), v, wv));
        exec.retire(kMacInstructions);
      }
      exec.structural_branches(out + 1);
    }
  }
  for (std::size_t o = 0; o < out; ++o) exec.store(y, o, exec.value(y, o));
}

void conv2d_fast_model(const Conv2DShape& g, SymbolicExecutor& exec) {
  // Transposed im2col + register-tiled GEMM (conv2d_fast.cpp): the patch
  // gather touches every in-bounds element behind public bounds tests,
  // and the GEMM's zero skip is a lane blend — branchless, full loads.
  // The structure is identical in both modes and for both algorithms, so
  // one model serves all four cells.
  const std::size_t pixels = g.out_h * g.out_w;
  const std::size_t patch_len = g.in_channels * g.kernel * g.kernel;
  const SymBuffer in = exec.input_buffer();
  const SymBuffer w = exec.param_buffer("weights", g.out_channels * patch_len);
  const SymBuffer b = exec.param_buffer("bias", g.out_channels);
  const SymBuffer patches =
      exec.scratch_buffer("patches_t", pixels * patch_len);
  const SymBuffer out = exec.output_buffer(g.out_channels * pixels);

  for (std::size_t oy = 0; oy < g.out_h; ++oy) {
    for (std::size_t ox = 0; ox < g.out_w; ++ox) {
      const std::size_t pixel = oy * g.out_w + ox;
      std::size_t column = 0;
      for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          for (std::size_t kx = 0; kx < g.kernel; ++kx, ++column) {
            SymValue v;
            if (in_bounds(oy, g.stride, ky, g.padding, g.in_h) &&
                in_bounds(ox, g.stride, kx, g.padding, g.in_w)) {
              const std::size_t iy = in_index(oy, g.stride, ky, g.padding);
              const std::size_t ix = in_index(ox, g.stride, kx, g.padding);
              v = exec.load(in, (ic * g.in_h + iy) * g.in_w + ix);
            }
            exec.store(patches, column * pixels + pixel, v);
          }
        }
      }
    }
  }
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
      SymValue acc = exec.load(b, oc);
      for (std::size_t j = 0; j < patch_len; ++j) {
        // Lane blend: load, multiply, mask — no branch, every element.
        acc = join(acc, exec.load(patches, j * pixels + pixel),
                   exec.load(w, oc * patch_len + j));
        exec.retire(kMacInstructions);
      }
      exec.store(out, oc * pixels + pixel, acc);
      exec.structural_branches(patch_len + 1);
    }
  }
}

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

void relu_fast_model(std::size_t n, SymbolicExecutor& exec) {
  // Vector max against zero: branchless in both modes.
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(n);
  for (std::size_t i = 0; i < n; ++i) {
    exec.store(out, i, exec.load(in, i));
    exec.retire(1);
  }
}

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

void maxpool2d_fast_model(const Pool2DShape& g, SymbolicExecutor& exec) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(g.channels * g.out_h * g.out_w);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        SymValue best;
        for (std::size_t wy = 0; wy < g.window; ++wy)
          for (std::size_t wx = 0; wx < g.window; ++wx)
            best = join(best,
                        exec.load(in, (c * g.in_h + (oy * g.window + wy)) *
                                              g.in_w +
                                          (ox * g.window + wx)));
        exec.store(out, (c * g.out_h + oy) * g.out_w + ox, best);
        exec.retire(g.window * g.window);
      }
    }
  }
}

void avgpool2d_fast_model(const Pool2DShape& g, SymbolicExecutor& exec) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(g.channels * g.out_h * g.out_w);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        SymValue sum;
        for (std::size_t wy = 0; wy < g.window; ++wy) {
          for (std::size_t wx = 0; wx < g.window; ++wx) {
            sum = join(sum,
                       exec.load(in, (c * g.in_h + (oy * g.window + wy)) *
                                             g.in_w +
                                         (ox * g.window + wx)));
            exec.retire(kLoopOverhead + 1);
          }
        }
        exec.store(out, (c * g.out_h + oy) * g.out_w + ox, sum);
        exec.retire(1);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------

void softmax_fast_model(std::size_t n, SymbolicExecutor& exec) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(n);
  SymValue max_v = exec.value(in, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // The running-max compare compiles to a cmov: value flow only.
    max_v = join(max_v, exec.load(in, i));
    exec.retire(kCompareInstructions + 1);
  }
  SymValue sum;
  for (std::size_t i = 0; i < n; ++i) {
    const SymValue e = join(exec.value(in, i), max_v);
    exec.store(out, i, e);
    sum = join(sum, e);
    exec.retire(20);
  }
  for (std::size_t i = 0; i < n; ++i) {
    exec.store(out, i, join(exec.value(out, i), sum));
    exec.retire(kLoopOverhead + 1);
  }
}

// ---------------------------------------------------------------------
// Elman RNN
// ---------------------------------------------------------------------

void rnn_fast_model(const RnnShape& g, SymbolicExecutor& exec,
                    KernelMode mode) {
  const std::size_t hidden = g.hidden_dim;
  const SymBuffer x = exec.input_buffer();
  const SymBuffer wx = exec.param_buffer("wx", g.input_dim * hidden);
  const SymBuffer wh = exec.param_buffer("wh", hidden * hidden);
  const SymBuffer b = exec.param_buffer("bias", hidden);
  const SymBuffer h = exec.output_buffer(hidden);
  const SymBuffer acc = exec.scratch_buffer("acc", hidden);
  const bool skip_zero = mode == KernelMode::kDataDependent;

  auto axpy_sweep = [&](const SymSite& site, auto read_v, std::size_t dim,
                        SymBuffer weights) {
    for (std::size_t i = 0; i < dim; ++i) {
      const SymValue v = read_v(i);
      auto row = [&, i] {
        for (std::size_t j = 0; j < hidden; ++j) {
          exec.store(acc, j, join(exec.value(acc, j), v,
                                  exec.load(weights, i * hidden + j)));
          exec.retire(kMacInstructions);
        }
        // The vectorized AXPY's source loop back-edges.
        exec.structural_branches(hidden + 1);
      };
      if (skip_zero) {
        exec.if_else(site, v, [&] {}, row);
      } else {
        row();
      }
    }
  };

  for (std::size_t t = 0; t < g.t_steps; ++t) {
    for (std::size_t j = 0; j < hidden; ++j)
      exec.store(acc, j, exec.load(b, j));
    axpy_sweep(
        SCE_SYM_SITE("rnn fast input row-skip (scalar branch)"),
        [&](std::size_t i) { return exec.load(x, t * g.input_dim + i); },
        g.input_dim, wx);
    axpy_sweep(
        SCE_SYM_SITE("rnn fast hidden row-skip (scalar branch)"),
        [&](std::size_t i) { return exec.load(h, i); }, hidden, wh);
    for (std::size_t j = 0; j < hidden; ++j) {
      // Blend-based ReLU: branchless in both modes.
      exec.store(h, j, exec.load(acc, j));
      exec.retire(1);
    }
  }
}

// -- model registry ----------------------------------------------------

namespace {

std::vector<SymbolicModelEntry>& model_cells() {
  static std::vector<SymbolicModelEntry> cells;
  return cells;
}

}  // namespace

namespace detail {

SymbolicModelRegistration::SymbolicModelRegistration(
    std::initializer_list<SymbolicModelEntry> entries) {
  auto& cells = model_cells();
  cells.insert(cells.end(), entries.begin(), entries.end());
}

}  // namespace detail

bool has_symbolic_model(const std::string& op, KernelMode mode,
                        ExecutionPath path) {
  for (const SymbolicModelEntry& cell : model_cells()) {
    if (op == cell.op && mode == cell.mode && path == cell.path) return true;
  }
  return false;
}

std::vector<SymbolicModelEntry> all_symbolic_models() {
  std::vector<SymbolicModelEntry> cells = model_cells();
  std::sort(cells.begin(), cells.end(),
            [](const SymbolicModelEntry& a, const SymbolicModelEntry& b) {
              const int c = std::strcmp(a.op, b.op);
              if (c != 0) return c < 0;
              if (a.mode != b.mode) return static_cast<int>(a.mode) <
                                           static_cast<int>(b.mode);
              return static_cast<int>(a.path) < static_cast<int>(b.path);
            });
  return cells;
}

namespace {

const detail::SymbolicModelRegistration registration{
    {"conv2d.direct", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"conv2d.direct", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"conv2d.im2col", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"conv2d.im2col", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"dense", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"dense", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"relu", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"relu", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"maxpool2d", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"maxpool2d", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"avgpool2d", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"avgpool2d", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"softmax", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"softmax", KernelMode::kConstantFlow, ExecutionPath::kFast},
    {"elman-rnn", KernelMode::kDataDependent, ExecutionPath::kFast},
    {"elman-rnn", KernelMode::kConstantFlow, ExecutionPath::kFast},
};

}  // namespace

}  // namespace sce::nn::kernels
