// leakage_eval_client: command-line tenant of the evaluation service.
//
//   leakage_eval_client submit --socket S --arch mnist-cnn --samples 8 \
//       --wait --print-report
//   leakage_eval_client status --socket S --id 3
//   leakage_eval_client watch  --socket S --id 3
//   leakage_eval_client cancel --socket S --id 3
//   leakage_eval_client report --socket S --id 3
//   leakage_eval_client stats  --socket S
//   leakage_eval_client shutdown --socket S
//
// The submit verb builds a zoo architecture, initializes it from
// --init-seed (or loads --weights), and ships the canonical serialized
// bytes — so two submits with identical options are digest-identical
// and the second is answered from the server's result cache.
// --expect-cached / --expect-executed turn that into an exit-code
// assertion (exit 3 on violation), and --bench-json records a labelled
// {wall_ms, measurements_executed, from_cache} entry for CI trending.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "nn/serialize.hpp"
#include "service/job.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using sce::service::JobStatus;

/// Every comma-separated item must be a whole integer: "2x" is refused,
/// not read as 2.
std::vector<int> parse_categories(const std::string& csv) {
  std::vector<int> out;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    int label = 0;
    const char* end = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(item.data(), end, label);
    if (ec != std::errc() || ptr != end)
      throw sce::InvalidArgument("option --categories: '" + item +
                                 "' is not an integer");
    out.push_back(label);
  }
  return out;
}

sce::service::JobConfig config_from_cli(const sce::util::CliParser& cli) {
  sce::service::JobConfig config;
  config.dataset.kind = cli.get("dataset");
  config.dataset.seed = static_cast<std::uint64_t>(cli.get_int("data-seed"));
  config.dataset.examples_per_class =
      static_cast<std::size_t>(cli.get_int("examples-per-class"));
  config.dataset.num_classes =
      static_cast<std::size_t>(cli.get_int("num-classes"));
  config.dataset.crop = static_cast<std::size_t>(cli.get_int("crop"));
  config.categories = parse_categories(cli.get("categories"));
  config.samples_per_category =
      static_cast<std::size_t>(cli.get_int("samples"));
  config.kernel_mode = cli.get("mode") == "constant-flow"
                           ? sce::nn::KernelMode::kConstantFlow
                           : sce::nn::KernelMode::kDataDependent;
  config.num_shards = static_cast<std::size_t>(cli.get_int("shards"));
  config.num_threads = static_cast<std::size_t>(cli.get_int("threads"));
  config.warmup_measurements =
      static_cast<std::size_t>(cli.get_int("warmup"));
  config.alpha = cli.get_double("alpha");
  config.priority = sce::service::parse_priority(cli.get("priority"));
  config.deadline = std::chrono::milliseconds(cli.get_int("deadline-ms"));
  return config;
}

void print_status(const JobStatus& status) {
  std::cout << "job " << status.id << ": "
            << sce::service::to_string(status.state) << " "
            << status.measurements_recorded << "/"
            << status.measurements_target << " measurements";
  if (status.from_cache) std::cout << " (from cache)";
  if (status.preemptions > 0)
    std::cout << " (" << status.preemptions << " preemptions, "
              << status.legs << " legs)";
  if (!status.error.empty()) std::cout << " — " << status.error;
  if (!status.reject_domain.empty())
    std::cout << " [" << status.reject_domain << ": " << status.reject_field
              << " " << status.reject_constraint << "]";
  std::cout << std::endl;
}

/// Parse a response frame; throws on transport-level ok:false.
sce::util::JsonValue parse_response(const std::string& frame) {
  sce::util::JsonValue doc = sce::util::parse_json(frame);
  if (!doc.at("ok").as_bool())
    throw sce::Error("server error (" +
                     doc.at("error_type").as_string() +
                     "): " + doc.at("error").as_string());
  return doc;
}

/// Re-render a parsed JSON value (for merging bench files).
void render_value(const sce::util::JsonValue& value, std::string& out) {
  using Type = sce::util::JsonValue::Type;
  switch (value.type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Type::kNumber:
      out += sce::util::json_number_exact(value.as_number());
      return;
    case Type::kString:
      out += sce::util::json_quote(value.as_string());
      return;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : value.items()) {
        if (!first) out += ',';
        first = false;
        render_value(item, out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        out += sce::util::json_quote(key) + ':';
        render_value(member, out);
      }
      out += '}';
      return;
    }
  }
}

/// Merge {label: entry} into the bench JSON file (created if missing;
/// an existing entry for the label is replaced, others are preserved).
void write_bench_entry(const std::string& path, const std::string& label,
                       double wall_ms, const JobStatus& status) {
  std::string entry = "{\"wall_ms\":" + sce::util::json_number(wall_ms);
  entry += ",\"measurements_executed\":" +
           std::to_string(status.measurements_executed);
  entry += std::string(",\"from_cache\":") +
           (status.from_cache ? "true" : "false");
  entry += ",\"state\":" +
           sce::util::json_quote(sce::service::to_string(status.state));
  entry += "}";

  std::string out = "{";
  bool first = true;
  if (std::ifstream in(path); in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    const sce::util::JsonValue doc = sce::util::parse_json(buffer.str());
    for (const auto& [key, value] : doc.members()) {
      if (key == label) continue;
      out += first ? "" : ",";
      first = false;
      out += sce::util::json_quote(key) + ':';
      render_value(value, out);
    }
  }
  out += first ? "" : ",";
  out += sce::util::json_quote(label) + ':' + entry + "}";
  std::ofstream file(path);
  file << out << "\n";
}

std::uint64_t require_id(const sce::util::CliParser& cli) {
  const std::int64_t id = cli.get_int("id");
  if (id < 0) throw sce::InvalidArgument("--id must be >= 0");
  return static_cast<std::uint64_t>(id);
}

/// Long-poll progress updates until the job is terminal; prints one line
/// per update.  Returns the final status.
JobStatus watch_job(sce::service::UnixSocket& socket, std::uint64_t id) {
  std::uint64_t last_seq = 0;
  for (;;) {
    const sce::util::JsonValue doc = parse_response(request_reply(
        socket, sce::service::make_stream_progress_request(id, last_seq)));
    const JobStatus status =
        sce::service::parse_status(doc.at("status"));
    print_status(status);
    if (status.terminal()) return status;
    last_seq = status.progress_seq;
  }
}

int run(int argc, char** argv) {
  sce::util::CliParser cli;
  cli.add_option("socket", "server socket path", ".sce_service/eval.sock");
  cli.add_option("id", "job id (status/wait/watch/cancel/report)", "-1");
  cli.add_option("arch",
                 "architecture to submit (mnist-cnn|cifar-cnn|sequence-rnn)",
                 "mnist-cnn");
  cli.add_option("weights", "load weights from this nn/serialize file", "");
  cli.add_option("init-seed",
                 "He-init seed when --weights is absent (deterministic: "
                 "same seed => same digest)",
                 "2");
  cli.add_option("dataset",
                 "dataset kind (mnist-like|cifar-like|sequence-like)",
                 "mnist-like");
  cli.add_option("data-seed", "synthetic dataset seed", "1");
  cli.add_option("examples-per-class", "dataset examples per class", "8");
  cli.add_option("num-classes", "dataset classes", "10");
  cli.add_option("crop", "center-crop images to this size (0 = full)", "0");
  cli.add_option("categories", "labels to profile, comma-separated",
                 "0,1,2,3");
  cli.add_option("samples", "measurements per category", "8");
  cli.add_option("mode", "kernel mode (data-dependent|constant-flow)",
                 "data-dependent");
  cli.add_option("shards", "campaign shards", "1");
  cli.add_option("threads", "campaign worker threads", "1");
  cli.add_option("warmup", "warmup measurements", "2");
  cli.add_option("alpha", "evaluator significance level", "0.05");
  cli.add_option("priority", "scheduling priority (low|normal|high)",
                 "normal");
  cli.add_option("deadline-ms", "per-leg wall-clock budget (0 = none)", "0");
  cli.add_option("why", "cancel reason", "client cancel");
  cli.add_flag("wait", "block until the submitted job is terminal");
  cli.add_flag("watch", "stream progress lines until terminal");
  cli.add_flag("print-report", "print the final report document");
  cli.add_flag("expect-cached",
               "exit 3 unless the job was served from the result cache");
  cli.add_flag("expect-executed",
               "exit 3 if the job was served from the result cache");
  cli.add_option("bench-json",
                 "merge a labelled bench entry into this file", "");
  cli.add_option("bench-label", "label for the bench entry", "run");

  try {
    cli.parse(argc, argv);
  } catch (const sce::InvalidArgument& e) {
    std::cerr << e.what() << "\n" << cli.usage(argv[0]);
    return 2;
  }
  if (cli.positional().size() != 1) {
    std::cerr << "usage: " << argv[0]
              << " submit|status|wait|watch|cancel|report|stats|shutdown "
                 "[options]\n"
              << cli.usage(argv[0]);
    return 2;
  }
  const std::string verb = cli.positional()[0];
  // Submit options are parsed before connecting: a malformed value exits
  // 2 without reaching the server.
  sce::service::JobConfig config;
  if (verb == "submit") config = config_from_cli(cli);

  sce::service::UnixSocket socket =
      sce::service::UnixSocket::connect_to(cli.get("socket"));

  if (verb == "submit") {
    const std::string arch = cli.get("arch");
    sce::nn::Sequential model = sce::service::build_architecture(arch);
    if (const std::string weights = cli.get("weights"); !weights.empty()) {
      sce::nn::load_model(model, weights);
    } else {
      sce::util::Rng rng(
          static_cast<std::uint64_t>(cli.get_int("init-seed")));
      model.initialize(rng);
    }

    const auto started = std::chrono::steady_clock::now();
    const sce::util::JsonValue doc = parse_response(request_reply(
        socket, sce::service::make_submit_request(arch, model, config)));
    const auto id = static_cast<std::uint64_t>(doc.at("id").as_int());
    JobStatus status = sce::service::parse_status(doc.at("status"));
    print_status(status);

    if (cli.get_flag("watch") && !status.terminal())
      status = watch_job(socket, id);
    else if (cli.get_flag("wait") && !status.terminal()) {
      const sce::util::JsonValue waited = parse_response(
          request_reply(socket, sce::service::make_wait_request(id)));
      status = sce::service::parse_status(waited.at("status"));
      print_status(status);
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();

    if (status.state == sce::service::JobState::kCompleted &&
        cli.get_flag("print-report")) {
      const sce::util::JsonValue report = parse_response(
          request_reply(socket, sce::service::make_report_request(id)));
      std::string text;
      render_value(report.at("report"), text);
      std::cout << text << std::endl;
    }
    if (const std::string bench = cli.get("bench-json"); !bench.empty())
      write_bench_entry(bench, cli.get("bench-label"), wall_ms, status);

    if (cli.get_flag("expect-cached") && !status.from_cache) {
      std::cerr << "expected a cache hit, but the job executed "
                << status.measurements_executed << " measurements\n";
      return 3;
    }
    if (cli.get_flag("expect-executed") && status.from_cache) {
      std::cerr << "expected an executed run, got a cache hit\n";
      return 3;
    }
    return status.state == sce::service::JobState::kCompleted ? 0 : 1;
  }

  if (verb == "status" || verb == "wait") {
    const std::uint64_t id = require_id(cli);
    const std::string request =
        verb == "wait" ? sce::service::make_wait_request(id)
                       : sce::service::make_status_request(id);
    const sce::util::JsonValue doc =
        parse_response(request_reply(socket, request));
    const JobStatus status = sce::service::parse_status(doc.at("status"));
    print_status(status);
    return status.state == sce::service::JobState::kFailed ? 1 : 0;
  }

  if (verb == "watch") {
    const JobStatus status = watch_job(socket, require_id(cli));
    return status.state == sce::service::JobState::kCompleted ? 0 : 1;
  }

  if (verb == "cancel") {
    const sce::util::JsonValue doc = parse_response(request_reply(
        socket,
        sce::service::make_cancel_request(require_id(cli), cli.get("why"))));
    std::cout << (doc.at("cancelled").as_bool() ? "cancelled"
                                                : "already terminal")
              << std::endl;
    return 0;
  }

  if (verb == "report") {
    const sce::util::JsonValue doc = parse_response(request_reply(
        socket, sce::service::make_report_request(require_id(cli))));
    std::string text;
    render_value(doc.at("report"), text);
    std::cout << text << std::endl;
    return 0;
  }

  if (verb == "stats") {
    const sce::util::JsonValue doc = parse_response(
        request_reply(socket, sce::service::make_stats_request()));
    std::string text;
    render_value(doc, text);
    std::cout << text << std::endl;
    return 0;
  }

  if (verb == "shutdown") {
    parse_response(
        request_reply(socket, sce::service::make_shutdown_request()));
    std::cout << "server shutting down" << std::endl;
    return 0;
  }

  std::cerr << "unknown verb '" << verb << "'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "leakage_eval_client: " << e.what() << "\n";
    return 2;
  }
}
