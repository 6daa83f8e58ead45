#include "analysis/symexec/engine.hpp"

#include <algorithm>
#include <utility>

#include "nn/layer.hpp"
#include "util/error.hpp"

namespace sce::analysis::symexec {

using nn::kernels::ArmRef;
using nn::kernels::SymBuffer;
using nn::kernels::SymSite;
using nn::kernels::SymTaint;
using nn::kernels::SymValue;

SymbolicEngine::SymbolicEngine(std::size_t input_numel)
    : input_numel_(input_numel) {}

SymBuffer SymbolicEngine::make_buffer(std::size_t numel, SymTaint taint) {
  buffers_.emplace_back(numel, SymValue{taint});
  return SymBuffer{buffers_.size() - 1};
}

SymBuffer SymbolicEngine::input_buffer() {
  return make_buffer(input_numel_, SymTaint::kSecret);
}

SymBuffer SymbolicEngine::param_buffer(const char*, std::size_t numel) {
  return make_buffer(numel, SymTaint::kPublic);
}

SymBuffer SymbolicEngine::output_buffer(std::size_t numel) {
  const SymBuffer buffer = make_buffer(numel, SymTaint::kPublic);
  output_id_ = buffer.id;
  return buffer;
}

SymBuffer SymbolicEngine::scratch_buffer(const char*, std::size_t numel) {
  return make_buffer(numel, SymTaint::kPublic);
}

namespace {

[[noreturn]] void throw_out_of_bounds(std::size_t buffer, std::size_t index,
                                      std::size_t size) {
  throw InvalidArgument("symbolic model indexes buffer " +
                        std::to_string(buffer) + " at element " +
                        std::to_string(index) + ", outside its " +
                        std::to_string(size) + " elements");
}

}  // namespace

SymValue& SymbolicEngine::element(SymBuffer buffer, std::size_t index) {
  if (buffer.id >= buffers_.size())
    throw_out_of_bounds(buffer.id, index, 0);
  std::vector<SymValue>& values = buffers_[buffer.id];
  if (index >= values.size())
    throw_out_of_bounds(buffer.id, index, values.size());
  return values[index];
}

SymValue SymbolicEngine::guard_taint() const {
  return guards_.empty() ? SymValue{} : guards_.back();
}

void SymbolicEngine::record_memory(MemEvent event) {
  if (!frames_.empty()) events_.push_back(event);
}

SymValue SymbolicEngine::load(SymBuffer buffer, std::size_t index) {
  const SymValue v = element(buffer, index);
  record_memory({buffer.id, index, false});
  return v;
}

void SymbolicEngine::store(SymBuffer buffer, std::size_t index, SymValue v) {
  assign(buffer, index, v);
  record_memory({buffer.id, index, true});
}

SymValue SymbolicEngine::value(SymBuffer buffer, std::size_t index) {
  return element(buffer, index);
}

void SymbolicEngine::assign(SymBuffer buffer, std::size_t index, SymValue v) {
  SymValue& slot = element(buffer, index);
  if (guards_.empty()) {
    // Strong update: an unconditional write replaces the element's taint
    // outright — this is what lets a sanitizing layer clear secrecy.
    slot = v;
  } else {
    // Weak update under a guard: the write may or may not happen in a
    // concrete run, so the old taint survives, and the guard predicate
    // flows in (implicit flow: "was written here" reveals the predicate).
    slot = join(join(slot, v), guard_taint());
  }
}

void SymbolicEngine::retire(std::uint64_t instructions) {
  if (!frames_.empty()) frames_.back().retired += instructions;
}

void SymbolicEngine::structural_branches(std::uint64_t count) {
  if (!frames_.empty()) frames_.back().structural += count;
}

void SymbolicEngine::branch(const SymSite& site, SymValue predicate) {
  if (!frames_.empty()) frames_.back().branch_events += 1;
  if (!branch_outcomes_ && join(predicate, guard_taint()).secret()) {
    branch_outcomes_ = true;
    note("branch-outcomes", site,
         "emitted branch predicate depends on secret data");
  }
}

void SymbolicEngine::if_else(const SymSite& site, SymValue predicate,
                             ArmRef then_arm, ArmRef else_arm) {
  const SymValue p = join(predicate, guard_taint());
  if (p.secret() && !branch_outcomes_) {
    branch_outcomes_ = true;
    note("branch-outcomes", site,
         "guarding branch predicate depends on secret data");
  }

  // Both arms append to events_: the then-arm's accesses end where the
  // else-arm's begin.
  guards_.push_back(p);
  frames_.push_back(Frame{events_.size()});
  then_arm();
  const Frame then_frame = frames_.back();
  frames_.back() = Frame{events_.size()};
  else_arm();
  const Frame else_frame = frames_.back();
  frames_.pop_back();
  guards_.pop_back();

  if (p.secret()) {
    const auto then_begin =
        events_.begin() + static_cast<std::ptrdiff_t>(then_frame.memory_begin);
    const auto else_begin =
        events_.begin() + static_cast<std::ptrdiff_t>(else_frame.memory_begin);
    if (!address_stream_ &&
        !std::equal(then_begin, else_begin, else_begin, events_.end())) {
      address_stream_ = true;
      note("address-stream", site,
           "then/else arms touch different memory (" +
               std::to_string(else_begin - then_begin) + " vs " +
               std::to_string(events_.end() - else_begin) + " accesses)");
    }
    if (!branch_count_ &&
        (then_frame.branch_events != else_frame.branch_events ||
         then_frame.structural != else_frame.structural)) {
      branch_count_ = true;
      note("branch-count", site,
           "then/else arms retire different branch totals (" +
               std::to_string(then_frame.branch_events +
                              then_frame.structural) +
               " vs " +
               std::to_string(else_frame.branch_events +
                              else_frame.structural) +
               ")");
    }
    if (!instruction_count_ && then_frame.retired != else_frame.retired) {
      instruction_count_ = true;
      note("instruction-count", site,
           "then/else arms retire different instruction counts (" +
               std::to_string(then_frame.retired) + " vs " +
               std::to_string(else_frame.retired) + ")");
    }
  }

  // An enclosing arm inherits both arms' events, then-arm first, so
  // nested secret branches still participate in the parent's diff
  // deterministically; the memory accesses are already in place on
  // events_.  Outside every arm nothing diffs them, so drop them.
  if (frames_.empty()) {
    events_.resize(then_frame.memory_begin);
  } else {
    Frame& parent = frames_.back();
    parent.branch_events += 1 + then_frame.branch_events +
                            else_frame.branch_events;
    parent.structural += then_frame.structural + else_frame.structural;
    parent.retired += then_frame.retired + else_frame.retired;
  }
}

SymValue SymbolicEngine::rng_draw(const SymSite& site) {
  rng_ = true;
  note("rng", site, "kernel draws inference-time randomness");
  // RNG output is independent of the secret input.
  return SymValue{SymTaint::kPublic};
}

void SymbolicEngine::scales_with_shape() { shape_scaled_ = true; }

void SymbolicEngine::unmodeled(const char* why) {
  if (!unmodeled_) unmodeled_reason_ = why;
  unmodeled_ = true;
}

void SymbolicEngine::note(const char* aspect, const SymSite& site,
                          std::string detail) {
  for (const Witness& w : witnesses_) {
    if (w.aspect == aspect) return;  // first witness per aspect
  }
  witnesses_.push_back(Witness{aspect, site.file, site.line, site.label,
                               std::move(detail)});
}

DerivedContract SymbolicEngine::finish(nn::ExecutionPath path) const {
  DerivedContract derived;
  derived.modeled = !unmodeled_;
  derived.unmodeled_reason = unmodeled_reason_;
  nn::LeakageContract& c = derived.contract;
  if (unmodeled_) {
    c = nn::LeakageContract::undeclared();
    c.path = path;
    return derived;
  }
  derived.witnesses = witnesses_;
  c.branch_outcomes_vary = branch_outcomes_;
  c.branch_count_varies = branch_count_;
  c.address_stream_varies = address_stream_;
  c.instruction_count_varies = instruction_count_;
  c.consumes_rng = rng_;
  c.shape_scales_trace = shape_scaled_;
  c.path = path;
  c.taint = nn::TaintTransfer::kSanitize;
  if (output_id_ != SIZE_MAX) {
    for (const SymValue& v : buffers_[output_id_]) {
      if (v.secret()) {
        c.taint = nn::TaintTransfer::kPropagate;
        break;
      }
    }
  }
  return derived;
}

DerivedContract derive_layer_contract(
    const nn::Layer& layer, const std::vector<std::size_t>& input_shape,
    nn::KernelMode mode, nn::ExecutionPath path) {
  std::size_t numel = 1;
  for (std::size_t d : input_shape) numel *= d;
  SymbolicEngine engine(numel);
  layer.symbolic_forward(engine, input_shape, mode, path);
  return engine.finish(path);
}

}  // namespace sce::analysis::symexec
