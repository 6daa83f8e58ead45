#include "nn/leakage_contract.hpp"

namespace sce::nn {

std::string to_string(TaintTransfer transfer) {
  return transfer == TaintTransfer::kPropagate ? "propagate" : "sanitize";
}

LeakageContract LeakageContract::undeclared() {
  LeakageContract c;
  c.branch_outcomes_vary = true;
  c.branch_count_varies = true;
  c.address_stream_varies = true;
  c.instruction_count_varies = true;
  c.declared = false;
  return c;
}

bool operator==(const LeakageContract& a, const LeakageContract& b) {
  return a.branch_outcomes_vary == b.branch_outcomes_vary &&
         a.branch_count_varies == b.branch_count_varies &&
         a.address_stream_varies == b.address_stream_varies &&
         a.instruction_count_varies == b.instruction_count_varies &&
         a.consumes_rng == b.consumes_rng &&
         a.shape_scales_trace == b.shape_scales_trace &&
         a.taint == b.taint && a.declared == b.declared && a.path == b.path;
}

bool operator!=(const LeakageContract& a, const LeakageContract& b) {
  return !(a == b);
}

std::string to_string(const LeakageContract& contract) {
  if (!contract.declared) return "no symbolic model (assumed worst-case)";
  std::string out;
  if (contract.branch_outcomes_vary || contract.branch_count_varies) {
    out += "branches(";
    out += contract.branch_outcomes_vary ? "outcomes" : "";
    if (contract.branch_count_varies)
      out += (contract.branch_outcomes_vary ? ",count" : "count");
    out += ")";
  }
  if (contract.address_stream_varies)
    out += (out.empty() ? "" : " ") + std::string("addresses");
  if (contract.instruction_count_varies)
    out += (out.empty() ? "" : " ") + std::string("instructions");
  if (contract.consumes_rng)
    out += (out.empty() ? "" : " ") + std::string("rng");
  if (contract.shape_scales_trace)
    out += (out.empty() ? "" : " ") + std::string("shape-scaled");
  if (out.empty()) out = "constant-flow";
  if (contract.taint == TaintTransfer::kSanitize) out += " [sanitizes]";
  if (!contract.oracle_verifiable())
    out += contract.symbolically_verified
               ? " [fast path: symbolically verified]"
               : " [fast path: oracle-unverified]";
  return out;
}

}  // namespace sce::nn
