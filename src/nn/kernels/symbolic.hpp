// The symbolic half of the kernels: an abstract executor whose values
// carry only a secrecy taint.
//
// Loop trip counts stay concrete (shapes come from the InferencePlan's
// shape inference) while data stays symbolic, so one run covers every
// input of that shape, and the engine behind the executor
// (src/analysis/symexec) can decide which trace aspects *can* vary with
// the secret input.  That derived LeakageContract is the layer's
// contract.
//
// Every kernel is its own model, on both execution paths.  Each is one
// loop nest over an execution domain (domain.hpp), and its
// SymbolicDomain instantiation emits exactly the sites, accesses and
// guarded regions its concrete instantiation executes; witnesses name
// the kernel's own source lines.  On the fast path that is the AVX2 loop
// structure itself: a lane blend is branchless, a scalar row-skip is a
// real branch, and a source loop inside a skipped region counts as
// structural branches even if the compiler unrolls it (conservative in
// the direction that never hides a leak).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "nn/kernels/execution_path.hpp"

namespace sce::nn {
enum class KernelMode;
enum class ConvAlgorithm;
}

namespace sce::nn::kernels {

struct Conv2DShape;
struct DenseShape;
struct Pool2DShape;
struct RnnShape;

/// Two-point secrecy lattice: the abstract "value" of the symbolic
/// domain.  kSecret marks data derived from the model input; parameters
/// (weights, biases) and constants are kPublic.
enum class SymTaint : std::uint8_t { kPublic = 0, kSecret = 1 };

inline SymTaint join(SymTaint a, SymTaint b) {
  return (a == SymTaint::kSecret || b == SymTaint::kSecret)
             ? SymTaint::kSecret
             : SymTaint::kPublic;
}

/// A symbolic scalar: no magnitude, only provenance.
struct SymValue {
  SymTaint taint = SymTaint::kPublic;
  bool secret() const { return taint == SymTaint::kSecret; }
};

inline SymValue join(SymValue a, SymValue b) {
  return SymValue{join(a.taint, b.taint)};
}
inline SymValue join(SymValue a, SymValue b, SymValue c) {
  return join(join(a, b), c);
}

/// Engine-issued handle to a symbolic tensor (per-element taints).
struct SymBuffer {
  std::size_t id = 0;
};

/// Source location of a leak-relevant construct: a kernel line (through
/// SCE_KERNEL_SITE, domain.hpp) or a line of a custom layer's symbolic
/// model.  The label names the construct (e.g. "dense row-skip
/// (x[i]==0)").
struct SymSite {
  const char* file = "";
  int line = 0;
  const char* label = "";
};

/// A non-owning reference to a `void()` callable: one arm of an
/// `if_else`.  Binding a lambda copies two pointers and never allocates.
/// The callable must outlive the call it is passed to, which an arm
/// written at the call site always does.
class ArmRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ArmRef> &&
             std::is_invocable_r_v<void, F&>)
  ArmRef(F&& arm) noexcept  // NOLINT: implicit, so lambdas convert
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(arm)))),
        call_([](void* object) {
          (*static_cast<std::remove_reference_t<F>*>(object))();
        }) {}

  void operator()() const { call_(object_); }

 private:
  void* object_;
  void (*call_)(void*);
};

/// The abstract machine a symbolic kernel run executes against.  Mirrors
/// the TraceSink event vocabulary (load/store/branch/retire/structural)
/// plus the control construct the sink cannot express: a region whose
/// *execution* depends on a predicate (`if_else`), which is what turns
/// value taint into count/address variance.
///
/// Contract for a custom layer's hand-written model (kernels reach the
/// executor through SymbolicDomain, which follows it by construction):
///  * Use `load`/`store` for accesses the real kernel performs (traced
///    or machine-level), `value`/`assign` for taint bookkeeping with no
///    memory traffic (views, register copies).
///  * Use plain C++ control flow for public predicates (loop bounds,
///    padding tests) and `branch`/`if_else` for data predicates.
///  * Arm thunks must only move engine state upward (accumulate via
///    join) — both arms are executed abstractly.
class SymbolicExecutor {
 public:
  virtual ~SymbolicExecutor() = default;

  /// The kernel's (secret) input activations.
  virtual SymBuffer input_buffer() = 0;
  /// A (public) parameter tensor: weights, biases.
  virtual SymBuffer param_buffer(const char* name, std::size_t numel) = 0;
  /// The kernel's output activations; its final taint decides the
  /// derived TaintTransfer.
  virtual SymBuffer output_buffer(std::size_t numel) = 0;
  /// Workspace scratch (im2col patches, RNN accumulator).
  virtual SymBuffer scratch_buffer(const char* name, std::size_t numel) = 0;

  /// A memory read/write the kernel performs, at a public (loop-derived)
  /// element index.
  virtual SymValue load(SymBuffer buffer, std::size_t index) = 0;
  virtual void store(SymBuffer buffer, std::size_t index, SymValue v) = 0;
  /// Taint bookkeeping without memory traffic.
  virtual SymValue value(SymBuffer buffer, std::size_t index) = 0;
  virtual void assign(SymBuffer buffer, std::size_t index, SymValue v) = 0;

  /// Instruction-count and loop-back-edge bookkeeping (the sink's
  /// retire/structural_branches).
  virtual void retire(std::uint64_t instructions) = 0;
  virtual void structural_branches(std::uint64_t count) = 0;

  /// An emitted conditional branch that does NOT guard any events (the
  /// ReLU sign test: both continuations do identical work).
  virtual void branch(const SymSite& site, SymValue predicate) = 0;
  /// A conditional branch guarding divergent work.  Executes both arms
  /// abstractly and diffs their event streams: arms that differ in
  /// memory / branch / retire events make the corresponding aspect
  /// input-dependent when `predicate` is secret.
  virtual void if_else(const SymSite& site, SymValue predicate,
                       ArmRef then_arm, ArmRef else_arm) = 0;

  /// The kernel draws inference-time randomness (a masking
  /// countermeasure would; none of the stock kernels do).
  virtual SymValue rng_draw(const SymSite& site) = 0;

  /// The kernel's trip count is an input dimension that a fixed-shape
  /// plan pins but a variable-shape deployment does not (an RNN's
  /// sequence length).  Informational: one fixed-shape run cannot see it,
  /// so the layer that knows its own shape semantics reports it.
  virtual void scales_with_shape() = 0;

  /// Called by Layer::symbolic_forward's base default: this layer has no
  /// symbolic model, so nothing can be derived for it.
  virtual void unmodeled(const char* why) = 0;
};

/// Symbolic run of each registered op for (mode, path), reading only the
/// geometry of the kernel shape struct (its pointers are ignored): the
/// kernel's own loop nest for that path, instantiated over
/// SymbolicDomain in its *_instrumented.cpp.
void conv2d_symbolic(const Conv2DShape& s, ConvAlgorithm algorithm,
                     SymbolicExecutor& exec, KernelMode mode,
                     ExecutionPath path);
void dense_symbolic(const DenseShape& s, SymbolicExecutor& exec,
                    KernelMode mode, ExecutionPath path);
void relu_symbolic(std::size_t n, SymbolicExecutor& exec, KernelMode mode,
                   ExecutionPath path);
void maxpool2d_symbolic(const Pool2DShape& s, SymbolicExecutor& exec,
                        KernelMode mode, ExecutionPath path);
void avgpool2d_symbolic(const Pool2DShape& s, SymbolicExecutor& exec,
                        ExecutionPath path);
void softmax_symbolic(std::size_t n, SymbolicExecutor& exec,
                      ExecutionPath path);
void rnn_symbolic(const RnnShape& s, SymbolicExecutor& exec, KernelMode mode,
                  ExecutionPath path);

}  // namespace sce::nn::kernels
