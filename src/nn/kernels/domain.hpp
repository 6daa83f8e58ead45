// Execution domains: one loop nest per instrumented kernel, three
// instantiations.
//
// Each *_instrumented.cpp kernel is a template over a domain `D` and
// touches data and control flow only through the vocabulary below.  The
// same loop nest then instantiates as
//  * TracedDomain<uarch::TraceSink> — concrete floats, every event
//    reported to an observing sink (campaigns, the trace oracle);
//  * TracedDomain<uarch::DiscardSink> — the same loop with every trace
//    call compiled away (the scalar path the fast kernels are measured
//    against);
//  * SymbolicDomain — secrecy taints over a SymbolicExecutor, from which
//    the analyzer derives the kernel's LeakageContract.  The symbolic
//    model *is* the kernel, so it cannot drift from it.
//
// Vocabulary (D::Value is float or SymValue, whose arithmetic is join):
//  input / param / output / scratch   bind a buffer: the pointer itself
//      concretely, a fresh engine buffer symbolically.  A handle supports
//      `handle + offset` like a pointer into the buffer.
//  load / store       a traced memory access at handle[i]
//  value              an untraced read (an accumulator re-read that the
//                     kernel keeps in a register, softmax's second pass)
//  retire / structural_branches   cost bookkeeping, as on the sink
//  branch(site, p)    a branch that guards no events (ReLU sign, max
//                     update): only its outcome can vary
//  if_else(site, p, skip, work)   a branch guarding divergent work:
//                     `skip` runs when p holds, `work` otherwise
//  select(p, a, b)    a branchless blend (cmov/maxss): no event
//  is_zero / is_negative / greater / exp   value predicates and math
//
// Public control flow (loop bounds, padding tests, a first-element flag)
// stays plain C++: it depends only on the shape, which is concrete in
// every domain.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/symbolic.hpp"

namespace sce::nn::kernels {

/// One static branch site of a kernel: the pseudo-PC the branch
/// predictor indexes by, and the source location the analyzer names as
/// the witness of a derived leak.
struct KernelSite {
  std::uintptr_t pc;
  SymSite witness;
};

/// Yields the KernelSite of the expansion point.  The pc is the address
/// of a function-local static (one per site, stable within a binary);
/// the witness is this file and line plus `label`.
#define SCE_KERNEL_SITE(label)                                          \
  ([]() -> ::sce::nn::kernels::KernelSite {                             \
    static constexpr ::sce::nn::kernels::SymSite site{__FILE__,         \
                                                      __LINE__, label}; \
    return {reinterpret_cast<std::uintptr_t>(&site), site};             \
  }())

/// Concrete domain over any sink with the TraceSink event vocabulary.
template <typename Sink>
class TracedDomain {
 public:
  using Value = float;

  explicit TracedDomain(Sink& sink) : sink_(sink) {}

  static const float* input(const float* p) { return p; }
  static const float* param(const float* p, const char*, std::size_t) {
    return p;
  }
  static float* output(float* p, std::size_t) { return p; }
  static float* scratch(float* p, const char*, std::size_t) { return p; }

  float load(const float* p, std::size_t i) {
    const float v = p[i];
    sink_.load(&p[i], sizeof(float));
    return v;
  }
  void store(float* p, std::size_t i, float v) {
    p[i] = v;
    sink_.store(&p[i], sizeof(float));
  }
  static float value(const float* p, std::size_t i) { return p[i]; }

  void retire(std::uint64_t n) { sink_.retire(n); }
  void structural_branches(std::uint64_t n) { sink_.structural_branches(n); }

  void branch(const KernelSite& site, bool p) { sink_.branch(site.pc, p); }
  template <typename Skip, typename Work>
  void if_else(const KernelSite& site, bool p, Skip&& skip, Work&& work) {
    sink_.branch(site.pc, p);
    if (p)
      skip();
    else
      work();
  }

  static float select(bool p, float a, float b) { return p ? a : b; }
  static bool is_zero(float v) { return v == 0.0f; }
  static bool is_negative(float v) { return v < 0.0f; }
  static bool greater(float a, float b) { return a > b; }
  static float exp(float v) { return std::exp(v); }

 private:
  Sink& sink_;
};

/// A symbolic buffer handle: an engine buffer plus an element offset,
/// the counterpart of a pointer into the middle of a tensor.
struct SymRef {
  SymBuffer buffer;
  std::size_t offset = 0;
};

inline SymRef operator+(SymRef r, std::size_t k) {
  return {r.buffer, r.offset + k};
}

// Arithmetic on taints: a result is secret when any operand is.  A float
// operand is a public constant.
inline SymValue operator+(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator-(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator*(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator/(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator*(SymValue a, float) { return a; }

/// Symbolic domain: a non-virtual forwarding layer over the executor, so
/// a kernel costs the engine the same calls a hand-written model would.
class SymbolicDomain {
 public:
  using Value = SymValue;

  explicit SymbolicDomain(SymbolicExecutor& exec) : exec_(exec) {}

  SymRef input(const float*) { return {exec_.input_buffer()}; }
  SymRef param(const float*, const char* name, std::size_t numel) {
    return {exec_.param_buffer(name, numel)};
  }
  SymRef output(float*, std::size_t numel) {
    return {exec_.output_buffer(numel)};
  }
  SymRef scratch(float*, const char* name, std::size_t numel) {
    return {exec_.scratch_buffer(name, numel)};
  }

  SymValue load(SymRef r, std::size_t i) {
    return exec_.load(r.buffer, r.offset + i);
  }
  void store(SymRef r, std::size_t i, SymValue v) {
    exec_.store(r.buffer, r.offset + i, v);
  }
  SymValue value(SymRef r, std::size_t i) {
    return exec_.value(r.buffer, r.offset + i);
  }

  void retire(std::uint64_t n) { exec_.retire(n); }
  void structural_branches(std::uint64_t n) { exec_.structural_branches(n); }

  void branch(const KernelSite& site, SymValue p) {
    exec_.branch(site.witness, p);
  }
  template <typename Skip, typename Work>
  void if_else(const KernelSite& site, SymValue p, Skip&& skip, Work&& work) {
    exec_.if_else(site.witness, p, skip, work);
  }

  static SymValue select(SymValue p, SymValue a, SymValue b) {
    return join(p, a, b);
  }
  static SymValue is_zero(SymValue v) { return v; }
  static SymValue is_negative(SymValue v) { return v; }
  static SymValue greater(SymValue a, SymValue b) { return join(a, b); }
  static SymValue exp(SymValue v) { return v; }

 private:
  SymbolicExecutor& exec_;
};

}  // namespace sce::nn::kernels
