#include "analysis/symexec/verifier.hpp"

#include "nn/layer.hpp"

namespace sce::analysis {

const std::string& analyzer_version() {
  // PR 5 analyzer = v1; v2 adds the symbolic verifier (derived
  // contracts change verdicts, so v1 cache entries must not be served).
  // symexec-2: instrumented contracts are derived from the kernels
  // themselves, and witnesses name kernel lines.
  static const std::string version = "analyzer-v2-symexec-2";
  return version;
}

namespace symexec {

bool claims_equal(const nn::LeakageContract& a, const nn::LeakageContract& b) {
  return a.branch_outcomes_vary == b.branch_outcomes_vary &&
         a.branch_count_varies == b.branch_count_varies &&
         a.address_stream_varies == b.address_stream_varies &&
         a.instruction_count_varies == b.instruction_count_varies &&
         a.consumes_rng == b.consumes_rng && a.taint == b.taint;
}

bool refines(const nn::LeakageContract& a, const nn::LeakageContract& b) {
  const auto implies = [](bool x, bool y) { return !x || y; };
  return implies(a.branch_outcomes_vary, b.branch_outcomes_vary) &&
         implies(a.branch_count_varies, b.branch_count_varies) &&
         implies(a.address_stream_varies, b.address_stream_varies) &&
         implies(a.instruction_count_varies, b.instruction_count_varies) &&
         implies(a.consumes_rng, b.consumes_rng);
}

std::string claims_diff(const nn::LeakageContract& declared,
                        const nn::LeakageContract& derived) {
  std::string diff;
  const auto flag = [&](const char* name, bool decl, bool deriv) {
    if (decl == deriv) return;
    if (!diff.empty()) diff += "; ";
    diff += "declared ";
    diff += name;
    diff += decl ? "=true" : "=false";
    diff += " but the code derives ";
    diff += deriv ? "true" : "false";
  };
  flag("branch_outcomes_vary", declared.branch_outcomes_vary,
       derived.branch_outcomes_vary);
  flag("branch_count_varies", declared.branch_count_varies,
       derived.branch_count_varies);
  flag("address_stream_varies", declared.address_stream_varies,
       derived.address_stream_varies);
  flag("instruction_count_varies", declared.instruction_count_varies,
       derived.instruction_count_varies);
  flag("consumes_rng", declared.consumes_rng, derived.consumes_rng);
  if (declared.taint != derived.taint) {
    if (!diff.empty()) diff += "; ";
    diff += "declared taint=" + to_string(declared.taint) +
            " but the code derives " + to_string(derived.taint);
  }
  return diff;
}

LayerVerification verify_layer(const nn::Layer& layer,
                               const std::vector<std::size_t>& input_shape,
                               nn::KernelMode mode, nn::ExecutionPath path) {
  LayerVerification result;
  result.derived = derive_layer_contract(layer, input_shape, mode, path);
  if (!result.derived.modeled) {
    result.detail = result.derived.unmodeled_reason;
    return result;
  }
  result.checked = true;

  const nn::LeakageContract declared = layer.leakage_contract(mode, path);
  result.matches_declared =
      claims_equal(result.derived.contract, declared);
  if (!result.matches_declared) {
    result.detail = claims_diff(declared, result.derived.contract);
    return result;
  }

  if (path != nn::ExecutionPath::kFast) return result;

  // Refinement chain: anchor the fast claim to the oracle-validated
  // instrumented one.
  const DerivedContract inst = derive_layer_contract(
      layer, input_shape, mode, nn::ExecutionPath::kInstrumented);
  if (!inst.modeled) {
    result.detail =
        "fast claim matches, but no instrumented model exists to anchor it";
    return result;
  }
  const nn::LeakageContract declared_inst =
      layer.leakage_contract(mode, nn::ExecutionPath::kInstrumented);
  if (!claims_equal(inst.contract, declared_inst)) {
    result.detail = "instrumented anchor disagrees with its declaration: " +
                    claims_diff(declared_inst, inst.contract);
    return result;
  }
  if (!refines(result.derived.contract, inst.contract)) {
    result.detail =
        "fast path leaks an aspect the instrumented kernel does not";
    return result;
  }
  result.symbolically_verified = true;
  return result;
}

}  // namespace symexec
}  // namespace sce::analysis
