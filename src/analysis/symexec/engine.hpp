// SymbolicEngine: the abstract interpreter behind symbolic kernel runs
// (nn/kernels/symbolic.hpp): the kernels' own loop nests, instrumented
// and fast, instantiated over SymbolicDomain.
//
// Domain: per-buffer, per-element secrecy taint (two-point lattice) with
// concrete loop trip counts — the affine index structure of the kernels
// is replayed literally, so every address a model touches is a concrete
// index into a symbolic buffer.  Control flow over secret data is the
// one construct the domain must interpret rather than replay: `if_else`
// runs both arms and diffs what each did (memory accesses, branch/
// structural events, retired instructions).  An aspect that differs
// between the arms of a secret-predicate branch *can* vary with the
// input — that is precisely the corresponding LeakageContract claim,
// each backed by a witness naming the model site.
//
// Cost: if_else allocates nothing once the engine's stacks are warm.
// Arms arrive as ArmRefs, and both arms append their memory accesses to
// one engine-wide event stack, so the two streams sit adjacent (then-arm
// first) and are compared in place.  Left there, they are exactly the
// concatenation an enclosing arm's diff must see; the outermost if_else
// truncates them away.  The guard stack holds running joins, so the
// taint of all enclosing guards is its top.  An aspect already derived
// is not re-diffed: only its first witness is kept.
//
// Soundness: arms are executed unconditionally and stores under a guard
// are weak updates joined with the guard taint (classic implicit-flow
// handling), so derived flags over-approximate any single concrete run.
// Precision: against this repo's kernels the derivation is exact — the
// tests require derived == oracle-observed for every zoo cell, and
// derived == the pinned fixture table for every library layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/kernels/symbolic.hpp"
#include "nn/leakage_contract.hpp"

namespace sce::nn {
class Layer;
}

namespace sce::analysis::symexec {

/// Where a derived leak claim comes from: the site (file/line of the
/// kernel; label naming the construct) plus what the engine saw there.
struct Witness {
  /// "branch-outcomes" | "branch-count" | "address-stream" |
  /// "instruction-count" | "rng".
  std::string aspect;
  std::string file;
  int line = 0;
  std::string label;
  std::string detail;
};

/// The result of symbolically executing one layer's kernel model.
struct DerivedContract {
  /// False when the layer has no symbolic model (Layer-base default
  /// called SymbolicExecutor::unmodeled) — nothing below is meaningful.
  bool modeled = false;
  std::string unmodeled_reason;
  /// The contract the *code* makes: variance flags from arm diffing,
  /// consumes_rng from rng_draw, shape_scales_trace from
  /// scales_with_shape, taint from the output buffer's final secrecy.
  /// An unmodeled layer gets LeakageContract::undeclared().
  nn::LeakageContract contract;
  /// First witness per derived aspect, in discovery order.
  std::vector<Witness> witnesses;
};

class SymbolicEngine final : public nn::kernels::SymbolicExecutor {
 public:
  explicit SymbolicEngine(std::size_t input_numel);

  nn::kernels::SymBuffer input_buffer() override;
  nn::kernels::SymBuffer param_buffer(const char* name,
                                      std::size_t numel) override;
  nn::kernels::SymBuffer output_buffer(std::size_t numel) override;
  nn::kernels::SymBuffer scratch_buffer(const char* name,
                                        std::size_t numel) override;

  nn::kernels::SymValue load(nn::kernels::SymBuffer buffer,
                             std::size_t index) override;
  void store(nn::kernels::SymBuffer buffer, std::size_t index,
             nn::kernels::SymValue v) override;
  nn::kernels::SymValue value(nn::kernels::SymBuffer buffer,
                              std::size_t index) override;
  void assign(nn::kernels::SymBuffer buffer, std::size_t index,
              nn::kernels::SymValue v) override;

  void retire(std::uint64_t instructions) override;
  void structural_branches(std::uint64_t count) override;

  void branch(const nn::kernels::SymSite& site,
              nn::kernels::SymValue predicate) override;
  void if_else(const nn::kernels::SymSite& site,
               nn::kernels::SymValue predicate,
               nn::kernels::ArmRef then_arm,
               nn::kernels::ArmRef else_arm) override;

  nn::kernels::SymValue rng_draw(const nn::kernels::SymSite& site) override;
  void scales_with_shape() override;
  void unmodeled(const char* why) override;

  /// Fold the accumulated facts into a DerivedContract stamped with
  /// `path`.  Call once, after the model returned.
  DerivedContract finish(nn::ExecutionPath path) const;

 private:
  /// One memory access: (buffer, element, is_store).
  struct MemEvent {
    std::size_t buffer = 0;
    std::size_t index = 0;
    bool is_store = false;
    bool operator==(const MemEvent&) const = default;
  };

  /// What one if_else arm did, for diffing against its sibling: its
  /// memory accesses are events_[memory_begin, end) while it runs.
  struct Frame {
    std::size_t memory_begin = 0;
    std::uint64_t branch_events = 0;
    std::uint64_t structural = 0;
    std::uint64_t retired = 0;
  };

  nn::kernels::SymBuffer make_buffer(std::size_t numel,
                                     nn::kernels::SymTaint taint);
  /// The element at (buffer, index); throws InvalidArgument when the
  /// model indexes outside the buffer.
  nn::kernels::SymValue& element(nn::kernels::SymBuffer buffer,
                                 std::size_t index);
  nn::kernels::SymValue guard_taint() const;
  void record_memory(MemEvent event);
  void note(const char* aspect, const nn::kernels::SymSite& site,
            std::string detail);

  std::vector<std::vector<nn::kernels::SymValue>> buffers_;
  std::size_t input_numel_ = 0;
  std::size_t output_id_ = SIZE_MAX;
  /// Running joins: guards_[i] joins the predicates of the i+1
  /// outermost open if_elses, so back() is every open guard's taint.
  std::vector<nn::kernels::SymValue> guards_;
  std::vector<Frame> frames_;
  /// Memory accesses of every open arm, outermost first.
  std::vector<MemEvent> events_;

  bool branch_outcomes_ = false;
  bool branch_count_ = false;
  bool address_stream_ = false;
  bool instruction_count_ = false;
  bool rng_ = false;
  bool shape_scaled_ = false;
  bool unmodeled_ = false;
  std::string unmodeled_reason_;
  std::vector<Witness> witnesses_;
};

/// Run `layer`'s symbolic model for inputs of `input_shape` under
/// (mode, path) and return what the code itself claims.  Never throws on
/// an unmodeled layer — that comes back as modeled == false.
DerivedContract derive_layer_contract(
    const nn::Layer& layer, const std::vector<std::size_t>& input_shape,
    nn::KernelMode mode, nn::ExecutionPath path);

}  // namespace sce::analysis::symexec
