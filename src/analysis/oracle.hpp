// The µarch trace oracle: dynamic cross-validation of LeakageContracts.
//
// A contract is a set of falsifiable claims about a kernel's TraceSink
// stream.  The oracle runs the kernel on a family of probe inputs —
// same shape, same buffers (so addresses are comparable), deliberately
// different sparsity/sign patterns — records every trace with a
// RecordingSink, and reports which aspects actually varied.  Tests and
// `leakage_lint --cross-check` then require observed variance to equal
// the contract derived from the kernel's symbolic model exactly: a
// flagged layer must really produce input-varying branch/address
// traces, and a constant-flow layer must be bit-identical across all
// probes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace sce::analysis {

/// Which aspects of the dynamic trace varied across the probe inputs.
/// Mirrors the four falsifiable claims of a LeakageContract.
struct TraceVariance {
  bool branch_outcomes = false;
  bool branch_count = false;
  bool address_stream = false;
  bool instruction_count = false;

  bool any() const {
    return branch_outcomes || branch_count || address_stream ||
           instruction_count;
  }
};

/// Deterministic probe family for `shape`: dense-positive (no skips
/// fire), mixed sign/zero, mostly-zero sparse, and strictly decreasing
/// (pins max-update branches the increasing probe takes).  Guaranteed
/// non-empty and all of identical shape.
std::vector<nn::Tensor> default_probes(const std::vector<std::size_t>& shape);

/// Run `layer` in `mode` on every probe (all staged through one input
/// buffer into one output buffer and workspace, so any address change is
/// caused by the data, not the allocator) and compare the recorded
/// traces pairwise against the first.
TraceVariance probe_layer(const nn::Layer& layer,
                          const std::vector<nn::Tensor>& probes,
                          nn::KernelMode mode);

/// One static-vs-dynamic disagreement.
struct OracleMismatch {
  std::size_t layer_index = 0;
  std::string layer_name;
  std::string detail;  // which claim disagreed, derived vs observed
};

/// Probe every layer of `model` (at its inferred input shape) in `mode`
/// and compare observed variance with the layer's derived instrumented
/// contract, claim by claim.  Layers with no symbolic model are skipped —
/// their assumed worst case is a conservative over-approximation the
/// oracle cannot falsify.  An empty result means the static analysis
/// agrees with the µarch oracle everywhere.
std::vector<OracleMismatch> cross_check_model(
    const nn::Sequential& model, const std::vector<std::size_t>& input_shape,
    nn::KernelMode mode);

}  // namespace sce::analysis
