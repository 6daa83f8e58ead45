// Execution domains: one loop nest per kernel, instantiated concretely
// and symbolically.
//
// Each *_instrumented.cpp kernel is a template over a domain `D` and
// touches data and control flow only through the vocabulary below.  The
// same loop nest then instantiates as
//  * TracedDomain<uarch::SimulatedMachine> — concrete floats, every event
//    an inlined direct call into the simulated machine (the campaign's
//    measurement path: the sink is a SimulatedPmu);
//  * TracedDomain<uarch::TraceSink> — the same events through one virtual
//    call each, for any other observing sink (recorders, tees, counters,
//    the trace oracle);
//  * TracedDomain<uarch::DiscardSink> — the same loop with every trace
//    call compiled away (the scalar path the fast kernels are measured
//    against, and the fast path itself for pooling and softmax, which do
//    not vectorize);
//  * SymbolicDomain — secrecy taints over a SymbolicExecutor, from which
//    the analyzer derives the kernel's LeakageContract.  The symbolic
//    model *is* the kernel, so it cannot drift from it.
// Each traced entry point picks its instantiation once per call with
// run_traced() below; nothing else chooses between the first two.
//
// Each vectorized fast kernel (*_fast.hpp, a private header per kernel)
// is likewise one loop nest, instantiated twice: concretely in its
// *_fast.cpp, over FastDomain (simd.hpp: v8f lanes, no trace), and over
// SymbolicDomain in the kernel's *_instrumented.cpp, so the fast path's
// contract is derived from the AVX2 loop structure itself (tiles,
// unrolling, tails).  The symbolic instantiation stays out of the -mavx2
// TUs, so no inline SymbolicDomain member is ever compiled for two ISAs.
//
// Site pcs: a branch's pc indexes the branch predictor, so every
// instantiation must report the same pc for the same site, or the two
// traced paths would train different predictor entries and disagree on
// branch-misses.  SCE_KERNEL_SITE's pc is therefore a compile-time hash
// of the site's source (file basename, line, label), never an address
// that differs per instantiation or per binary.
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
// Fast kernels add lanes (D::Lanes: v8f, or kLanes SymValues joined
// lane-wise): loadu / storeu (one access per lane), broadcast, lane
// select, mac_skip_zero / mac_where (also on scalars, for the tails),
// prefetch, copy, constant, and
//  unless_zero(site, enabled, v, work)   the row-skip guard: `work`
//                     runs unless `enabled` and v == 0; symbolically an
//                     if_else with an empty skip arm, only when enabled.
//
// Public control flow (loop bounds, padding tests, tile and tail choice)
// stays plain C++: it depends only on the shape, which is concrete in
// every domain.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/symbolic.hpp"
#include "uarch/machine.hpp"
#include "uarch/trace.hpp"

namespace sce::nn::kernels {

#if defined(__GNUC__) || defined(__clang__)
#define SCE_HAVE_VECTOR_EXTENSIONS 1
/// Lanes per vector in the fast kernels (eight floats: one AVX register).
inline constexpr std::size_t kLanes = 8;
#else
inline constexpr std::size_t kLanes = 1;
#endif

/// One static branch site of a kernel: the pseudo-PC the branch
/// predictor indexes by, and the source location the analyzer names as
/// the witness of a derived leak.
struct KernelSite {
  std::uintptr_t pc;
  SymSite witness;
};

namespace detail {
constexpr std::uint64_t fnv1a(std::uint64_t h, unsigned char byte) {
  return (h ^ byte) * 0x100000001B3ULL;
}
constexpr std::uint64_t fnv1a(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) h = fnv1a(h, static_cast<unsigned char>(*s));
  return h;
}
}  // namespace detail

/// The pc of the site at `file`:`line` named `label`: FNV-1a over the
/// file's basename, the line's four bytes and the label.  A pure function
/// of the source, so it is the same in every instantiation and every
/// binary.
constexpr std::uintptr_t kernel_site_pc(const char* file, int line,
                                        const char* label) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p)
    if (*p == '/' || *p == '\\') base = p + 1;
  std::uint64_t h = detail::fnv1a(0xCBF29CE484222325ULL, base);
  for (int shift = 0; shift < 32; shift += 8)
    h = detail::fnv1a(h, static_cast<unsigned char>(
                             static_cast<unsigned>(line) >> shift));
  return static_cast<std::uintptr_t>(detail::fnv1a(h, label));
}

consteval KernelSite make_kernel_site(const char* file, int line,
                                      const char* label) {
  return {kernel_site_pc(file, line, label), SymSite{file, line, label}};
}

/// Yields the KernelSite of the expansion point: the witness is this
/// file and line plus `label`, and the pc is kernel_site_pc of the same
/// three, evaluated at compile time.
#define SCE_KERNEL_SITE(label) \
  (::sce::nn::kernels::make_kernel_site(__FILE__, __LINE__, label))

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

/// Runs `kernel(d)` once over the traced domain that fits `sink`: the
/// direct-call TracedDomain<uarch::SimulatedMachine> when the sink is the
/// simulated machine, TracedDomain<uarch::TraceSink> otherwise.  Both run
/// the same loop nest and report the same events with the same site pcs,
/// so they yield the same counts.  The check runs once per kernel call.
template <typename Kernel>
void run_traced(uarch::TraceSink& sink, Kernel&& kernel) {
  if (auto* machine = dynamic_cast<uarch::SimulatedMachine*>(&sink)) {
    TracedDomain<uarch::SimulatedMachine> d(*machine);
    kernel(d);
  } else {
    TracedDomain<uarch::TraceSink> d(sink);
    kernel(d);
  }
}

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

/// The symbolic counterpart of a v8f: one taint per lane.
struct SymLanes {
  SymValue lane[kLanes];
};

inline SymLanes join(const SymLanes& a, const SymLanes& b) {
  SymLanes r;
  for (std::size_t k = 0; k < kLanes; ++k)
    r.lane[k] = join(a.lane[k], b.lane[k]);
  return r;
}

// Lane arithmetic and comparisons on taints: lane-wise join.
inline SymLanes operator+(const SymLanes& a, const SymLanes& b) {
  return join(a, b);
}
inline SymLanes operator*(const SymLanes& a, const SymLanes& b) {
  return join(a, b);
}
inline SymLanes operator<(const SymLanes& a, const SymLanes& b) {
  return join(a, b);
}

/// Symbolic domain: a non-virtual forwarding layer over the executor.
class SymbolicDomain {
 public:
  using Value = SymValue;
  using Lanes = SymLanes;

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

  /// A blend, on scalars or lanes: taints join.
  template <typename T>
  static T select(const T& p, const T& a, const T& b) {
    return join(join(p, a), b);
  }
  static SymValue is_zero(SymValue v) { return v; }
  static SymValue is_negative(SymValue v) { return v; }
  static SymValue greater(SymValue a, SymValue b) { return join(a, b); }
  static SymValue exp(SymValue v) { return v; }

  // -- the fast kernels' vocabulary --------------------------------------

  SymLanes loadu(SymRef r, std::size_t i) {
    SymLanes v;
    for (std::size_t k = 0; k < kLanes; ++k) v.lane[k] = load(r, i + k);
    return v;
  }
  void storeu(SymRef r, std::size_t i, const SymLanes& v) {
    for (std::size_t k = 0; k < kLanes; ++k) store(r, i + k, v.lane[k]);
  }
  void copy(SymRef dst, SymRef src, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) store(dst, i, load(src, i));
  }
  static void prefetch(SymRef, std::size_t) {}
  static SymValue constant(float) { return {}; }

  static SymLanes broadcast(SymValue v) {
    SymLanes r;
    for (SymValue& lane : r.lane) lane = v;
    return r;
  }
  // The skip-aware accumulates, on scalars (tails) or lanes: taints join.
  template <typename T>
  static T mac_skip_zero(const T& acc, const T& v, const T& w) {
    return join(join(acc, v), w);
  }
  template <typename T>
  static T mac_where(const T& valid, const T& acc, const T& v, const T& w) {
    return join(join(join(valid, acc), v), w);
  }

  template <typename Work>
  void unless_zero(const KernelSite& site, bool enabled, SymValue v,
                   Work&& work) {
    if (enabled)
      exec_.if_else(site.witness, v, [] {}, work);
    else
      work();
  }

 private:
  SymbolicExecutor& exec_;
};

}  // namespace sce::nn::kernels
