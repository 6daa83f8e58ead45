// The concrete domain of the vectorized fast kernels: v8f lanes, plain
// pointers, no trace.  Include this only from the -mavx2 *_fast.cpp TUs
// (conv2d, dense, activation, rnn), so its inline definitions are never
// compiled for two ISAs.  Each of those kernels is one loop nest in a
// private *_fast.hpp, a template over a domain (domain.hpp): its
// *_fast.cpp instantiates it over FastDomain, and its *_instrumented.cpp
// over SymbolicDomain, from which the fast path's contract is derived.
//
// Built on GCC/Clang vector extensions: the semantics of every operation
// are plain IEEE-754 single-precision lane arithmetic, identical whether
// the compiler lowers a v8f to one AVX register, two SSE registers or
// eight scalars.  That ISA-independence is what lets the fast kernels
// promise bit-for-bit equality with the scalar instrumented loops on any
// target: the *order* of operations per output element is fixed by the
// kernel, and each operation is the same IEEE operation everywhere.
//
// Two rules keep that promise honest:
//  * vectorize across independent outputs (pixels, output features) —
//    never across a reduction; reduction indices advance sequentially so
//    each lane's accumulation order matches the scalar kernel's.
//  * no FMA: multiplies and adds stay separate (sce_nn builds with
//    -ffp-contract=off), because the instrumented loops round after the
//    multiply.
//
// The skip-aware accumulate mirrors the instrumented zero-skip *exactly*,
// including the corner cases: a skipped lane keeps its old accumulator
// bits (never "adds zero", which would turn -0.0 into +0.0), and a NaN
// activation is not equal to zero, so it participates — just as the
// scalar `if (v == 0.0f) continue;` does.  The scalar overloads are the
// tails' twins, so a tail element computes exactly what a lane would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "nn/kernels/domain.hpp"

namespace sce::nn::kernels {

#ifdef SCE_HAVE_VECTOR_EXTENSIONS
typedef float v8f __attribute__((vector_size(kLanes * sizeof(float))));
typedef int v8i __attribute__((vector_size(kLanes * sizeof(int))));
#endif

class FastDomain {
 public:
  using Value = float;

  static const float* input(const float* p) { return p; }
  static const float* param(const float* p, const char*, std::size_t) {
    return p;
  }
  static float* output(float* p, std::size_t) { return p; }
  static float* scratch(float* p, const char*, std::size_t) { return p; }

  static float load(const float* p, std::size_t i) { return p[i]; }
  static void store(float* p, std::size_t i, float v) { p[i] = v; }
  static void copy(float* dst, const float* src, std::size_t n) {
    std::memcpy(dst, src, n * sizeof(float));
  }
  static float constant(float c) { return c; }

  // Bookkeeping for the symbolic instantiation only.
  static void retire(std::uint64_t) {}
  static void structural_branches(std::uint64_t) {}

  /// Marked likely because the compiler predicts this branch before it
  /// inlines `work`, and a call looks unlikely: unhinted, a row moves
  /// behind a taken jump and Dense's fast GEMV ran 15-30% slower.
  template <typename Work>
  static void unless_zero(const KernelSite&, bool enabled, float v,
                          Work&& work) {
    if (!(enabled && v == 0.0f)) [[likely]]
      work();
  }

  static float select(bool p, float a, float b) { return p ? a : b; }
  static bool is_negative(float v) { return v < 0.0f; }

  static float mac_skip_zero(float acc, float v, float w) {
    return v == 0.0f ? acc : acc + v * w;
  }
  static float mac_where(float valid, float acc, float v, float w) {
    return valid != 0.0f ? acc + v * w : acc;
  }

#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  using Lanes = v8f;

  static v8f loadu(const float* p, std::size_t i) {
    v8f v;
    std::memcpy(&v, p + i, sizeof(v));
    return v;
  }
  static void storeu(float* p, std::size_t i, v8f v) {
    std::memcpy(p + i, &v, sizeof(v));
  }
  static void prefetch(const float* p, std::size_t i) {
    __builtin_prefetch(p + i);
  }

  static v8f broadcast(float x) { return v8f{x, x, x, x, x, x, x, x}; }

  /// Lane-wise select: mask lanes are comparison results (all-ones /
  /// all-zeros); a set lane takes `a`, a clear lane takes `b`.
  static v8f select(v8i mask, v8f a, v8f b) { return mask ? a : b; }

  /// acc + v*w where lanes with v == 0.0f keep their accumulator bits —
  /// the vector form of the instrumented data-dependent zero-skip.
  static v8f mac_skip_zero(v8f acc, v8f v, v8f w) {
    return select(v == broadcast(0.0f), acc, acc + v * w);
  }

  /// acc + v*w on lanes where `valid` is nonzero; invalid lanes keep their
  /// accumulator bits (the direct algorithm's out-of-bounds skip).
  static v8f mac_where(v8f valid, v8f acc, v8f v, v8f w) {
    return select(valid != broadcast(0.0f), acc + v * w, acc);
  }
#endif
};

}  // namespace sce::nn::kernels
