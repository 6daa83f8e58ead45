#include "analysis/report.hpp"

#include <cstdio>

#include "analysis/symexec/verifier.hpp"
#include "util/json.hpp"

namespace sce::analysis {

namespace {

std::string shape_string(const std::vector<std::size_t>& shape) {
  std::string out = "{";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(shape[i]);
  }
  return out + "}";
}

void append_shape(util::JsonWriter& json, const char* key,
                  const std::vector<std::size_t>& shape) {
  json.key(key).begin_array();
  for (std::size_t d : shape) json.value(static_cast<std::uint64_t>(d));
  json.end_array();
}

void append_events(util::JsonWriter& json, const char* key,
                   const EventSet& events) {
  json.key(key).begin_array();
  for (hpc::HpcEvent e : events.events()) json.value(hpc::to_string(e));
  json.end_array();
}

}  // namespace

std::string render_text(const AnalysisReport& report) {
  std::string out;
  out += "leakage lint: " + report.model_name + " [" +
         nn::to_string(report.mode) + ", " + nn::to_string(report.path) +
         "], input " + shape_string(report.input_shape) + "\n";
  if (report.path == nn::ExecutionPath::kFast)
    out += "  NOTE: fast-path contracts carry no trace; the symbolic "
           "verifier anchors each one to its oracle-validated instrumented "
           "contract (unanchored claims are reported unverified)\n";
  for (const LayerFinding& f : report.findings) {
    char line[256];
    std::snprintf(line, sizeof(line), "  #%-2zu %-10s %-18s %-8s ", f.index,
                  f.layer_name.c_str(),
                  to_string(f.kernel_verdict).c_str(),
                  f.exploitable ? to_string(f.severity).c_str() : "ok");
    out += line;
    out += to_string(f.contract);
    if (f.exploitable && !f.predicted.empty())
      out += "  -> " + f.predicted.to_string();
    out += "\n";
  }
  out += "verdict: " + to_string(report.verdict);
  if (report.exploitable_layers > 0)
    out += " (" + std::to_string(report.exploitable_layers) +
           " exploitable layer" +
           (report.exploitable_layers == 1 ? "" : "s") + ")";
  if (report.undeclared_layers > 0)
    out += ", " + std::to_string(report.undeclared_layers) + " layer" +
           (report.undeclared_layers == 1 ? "" : "s") +
           " without a symbolic model";
  if (report.rng_layers > 0)
    out += ", " + std::to_string(report.rng_layers) + " rng consumer" +
           (report.rng_layers == 1 ? "" : "s");
  if (report.symbolically_verified_layers > 0)
    out += ", " + std::to_string(report.symbolically_verified_layers) +
           " symbolically verified contract" +
           (report.symbolically_verified_layers == 1 ? "" : "s");
  if (report.unverified_layers > 0)
    out += ", " + std::to_string(report.unverified_layers) +
           " oracle-unverified contract" +
           (report.unverified_layers == 1 ? "" : "s");
  out += "\n";
  if (!report.predicted.empty())
    out += "predicted distinguishable events: " + report.predicted.to_string() +
           "\n";
  return out;
}

std::string render_json(const AnalysisReport& report) {
  util::JsonWriter json;
  json.begin_object();
  // Bump schema_version on any structural change to this document.
  json.key("schema_version").value(static_cast<std::uint64_t>(3));
  json.key("analyzer_version").value(analyzer_version());
  json.key("model").value(report.model_name);
  json.key("mode").value(nn::to_string(report.mode));
  json.key("path").value(nn::to_string(report.path));
  append_shape(json, "input_shape", report.input_shape);
  json.key("verdict").value(to_string(report.verdict));
  append_events(json, "predicted_events", report.predicted);
  json.key("exploitable_layers")
      .value(static_cast<std::uint64_t>(report.exploitable_layers));
  json.key("undeclared_layers")
      .value(static_cast<std::uint64_t>(report.undeclared_layers));
  json.key("rng_layers").value(static_cast<std::uint64_t>(report.rng_layers));
  json.key("unverified_layers")
      .value(static_cast<std::uint64_t>(report.unverified_layers));
  json.key("symbolically_verified_layers")
      .value(static_cast<std::uint64_t>(report.symbolically_verified_layers));
  json.key("findings").begin_array();
  for (const LayerFinding& f : report.findings) {
    json.begin_object();
    json.key("index").value(static_cast<std::uint64_t>(f.index));
    json.key("layer").value(f.layer_name);
    append_shape(json, "input_shape", f.input_shape);
    append_shape(json, "output_shape", f.output_shape);
    json.key("verdict").value(to_string(f.kernel_verdict));
    json.key("input_taint").value(to_string(f.input_taint));
    json.key("exploitable").value(f.exploitable);
    json.key("severity").value(to_string(f.severity));
    json.key("contract").begin_object();
    json.key("declared").value(f.contract.declared);
    json.key("branch_outcomes_vary").value(f.contract.branch_outcomes_vary);
    json.key("branch_count_varies").value(f.contract.branch_count_varies);
    json.key("address_stream_varies").value(f.contract.address_stream_varies);
    json.key("instruction_count_varies")
        .value(f.contract.instruction_count_varies);
    json.key("consumes_rng").value(f.contract.consumes_rng);
    json.key("shape_scales_trace").value(f.contract.shape_scales_trace);
    json.key("taint_transfer").value(nn::to_string(f.contract.taint));
    json.key("path").value(nn::to_string(f.contract.path));
    json.key("oracle_verifiable").value(f.contract.oracle_verifiable());
    json.key("symbolically_verified")
        .value(f.contract.symbolically_verified);
    json.end_object();
    json.key("witnesses").begin_array();
    for (const symexec::Witness& w : f.witnesses) {
      json.begin_object();
      json.key("aspect").value(w.aspect);
      json.key("file").value(w.file);
      json.key("line").value(static_cast<std::int64_t>(w.line));
      json.key("label").value(w.label);
      json.key("detail").value(w.detail);
      json.end_object();
    }
    json.end_array();
    append_events(json, "predicted_events", f.predicted);
    json.key("detail").value(f.detail);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace sce::analysis
