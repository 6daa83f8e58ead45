// Contract verification for the fast path.
//
// The engine (engine.hpp) derives what a kernel's *code* claims; that
// derived contract is the layer's contract.  On the instrumented path
// the dynamic trace oracle can falsify it.  The fast path emits no
// trace, so this module substitutes one refinement link for the trace:
//
//   derived(fast) refines derived(instrumented)   (fast leaks no more)
//
// and derived(instrumented) is the contract the oracle validates.  A fast
// contract for which the link holds is "symbolically verified", which
// closes the oracle-unverified gap `leakage_lint --path fast` would
// otherwise report.
#pragma once

#include <string>
#include <vector>

#include "analysis/symexec/engine.hpp"

namespace sce::analysis {

/// Version tag of the static analyzer + symbolic verifier.  Folded into
/// the service's ResultCache key: a cached verdict is only as good as
/// the analyzer that produced it, so an analyzer change must miss.
/// Bump on any change to derivation rules, symbolic models, or lint
/// gating semantics.  A change to derivation speed alone does not bump
/// it, so result-cache keys stay valid across it.
const std::string& analyzer_version();

namespace symexec {

/// True when `a` leaks no aspect that `b` does not also leak (a's
/// variance + RNG flags are pointwise <= b's).
bool refines(const nn::LeakageContract& a, const nn::LeakageContract& b);

/// One layer's verification result for one (mode, path).
struct LayerVerification {
  /// What the code says, for the requested (mode, path).  When
  /// `derived.modeled` is false the layer has no symbolic model and the
  /// contract is LeakageContract::undeclared().  On the fast path,
  /// `derived.contract.symbolically_verified` is set when the fast
  /// contract refines the derived instrumented one, so it is trustworthy
  /// without a trace; it stays false on the instrumented path, where the
  /// oracle itself is the authority.
  DerivedContract derived;
  /// Why the layer is unmodeled or the fast contract is unanchored, when
  /// it is ("" otherwise).
  std::string detail;
};

/// Verify one layer: derive its contract and, on the fast path, check
/// that it refines the derived instrumented contract.
LayerVerification verify_layer(const nn::Layer& layer,
                               const std::vector<std::size_t>& input_shape,
                               nn::KernelMode mode, nn::ExecutionPath path);

}  // namespace symexec
}  // namespace sce::analysis
