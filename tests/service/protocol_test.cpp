#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "hpc/instrument_factory.hpp"
#include "nn/serialize.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "tests/core/campaign_helpers.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sce::service {
namespace {

std::unique_ptr<hpc::InstrumentFactory> make_trace_pure() {
  return std::make_unique<hpc::CallbackInstrumentFactory>(
      [](std::size_t, std::size_t) {
        return hpc::Instrument::adopt(
            std::make_unique<core::testing::TracePurePmu>());
      },
      "trace-pure");
}

ServerConfig test_server_config(const std::string& tag) {
  ServerConfig config;
  config.executors = 1;
  config.work_dir =
      (std::filesystem::temp_directory_path() / ("sce_proto_test_" + tag))
          .string();
  config.instruments = make_trace_pure;
  return config;
}

/// A zoo job small enough for a unit test: mnist-cnn on full 28x28
/// images, two categories, two samples each.
JobConfig small_zoo_config() {
  JobConfig config;
  config.dataset.kind = "mnist-like";
  config.dataset.examples_per_class = 2;
  config.categories = {0, 1};
  config.samples_per_category = 2;
  config.warmup_measurements = 0;
  return config;
}

TEST(Protocol, SubmitStatusReportRoundTrip) {
  EvaluationServer server(test_server_config("roundtrip"));
  nn::Sequential model = build_architecture("mnist-cnn");
  util::Rng rng(2);
  model.initialize(rng);

  const std::string request =
      make_submit_request("mnist-cnn", model, small_zoo_config());
  bool shutdown_requested = true;
  const std::string response =
      handle_request(server, request, shutdown_requested);
  EXPECT_FALSE(shutdown_requested);

  const util::JsonValue doc = util::parse_json(response);
  ASSERT_TRUE(doc.at("ok").as_bool()) << response;
  const auto id = static_cast<std::uint64_t>(doc.at("id").as_int());
  const JobStatus submitted = parse_status(doc.at("status"));
  EXPECT_EQ(submitted.id, id);
  EXPECT_EQ(submitted.model_digest, nn::model_digest(model));

  const util::JsonValue waited = util::parse_json(
      handle_request(server, make_wait_request(id), shutdown_requested));
  const JobStatus done = parse_status(waited.at("status"));
  EXPECT_EQ(done.state, JobState::kCompleted) << done.error;
  EXPECT_EQ(done.measurements_recorded, 4u);

  const util::JsonValue report = util::parse_json(
      handle_request(server, make_report_request(id), shutdown_requested));
  ASSERT_TRUE(report.at("ok").as_bool());
  EXPECT_EQ(report.at("report").at("model_digest").as_string(),
            nn::model_digest(model));
  EXPECT_EQ(report.at("report").at("measurements").as_int(), 4);

  const util::JsonValue stats = util::parse_json(
      handle_request(server, make_stats_request(), shutdown_requested));
  EXPECT_EQ(stats.at("server").at("completed").as_int(), 1);
}

TEST(Protocol, StatusDocumentRoundTripsEveryField) {
  JobStatus status;
  status.id = 7;
  status.state = JobState::kPreempted;
  status.priority = Priority::kHigh;
  status.model_digest = "m";
  status.config_digest = "c";
  status.from_cache = false;
  status.measurements_recorded = 12;
  status.measurements_target = 128;
  status.measurements_executed = 12;
  status.preemptions = 2;
  status.legs = 3;
  status.progress_seq = 41;
  status.error = "e";
  status.reject_domain = "d";
  status.reject_field = "f";
  status.reject_constraint = "k";

  const JobStatus round =
      parse_status(util::parse_json(status_json(status)));
  EXPECT_EQ(status_json(round), status_json(status));
  EXPECT_EQ(round.state, JobState::kPreempted);
  EXPECT_EQ(round.priority, Priority::kHigh);
  EXPECT_EQ(round.preemptions, 2u);
}

TEST(Protocol, TenantMistakesComeBackAsOkFalse) {
  EvaluationServer server(test_server_config("mistakes"));
  bool shutdown_requested = false;

  for (const std::string bad :
       {std::string("not json at all"), std::string("{\"no\":\"verb\"}"),
        std::string("{\"verb\":\"frobnicate\"}"),
        std::string("{\"verb\":\"status\",\"id\":999}"),
        std::string("{\"verb\":\"submit\",\"architecture\":\"vax\","
                    "\"weights_b64\":\"\",\"config\":{}}"),
        // Deep enough to overflow an unbounded recursive parser's stack.
        std::string(100000, '[')}) {
    const util::JsonValue doc = util::parse_json(
        handle_request(server, bad, shutdown_requested));
    EXPECT_FALSE(doc.at("ok").as_bool()) << bad;
    EXPECT_FALSE(doc.at("error").as_string().empty());
    EXPECT_FALSE(shutdown_requested);
  }
}

TEST(Protocol, ShutdownVerbSetsFlag) {
  EvaluationServer server(test_server_config("shutdownverb"));
  bool shutdown_requested = false;
  const util::JsonValue doc = util::parse_json(
      handle_request(server, make_shutdown_request(), shutdown_requested));
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(shutdown_requested);
}

TEST(Protocol, UnknownArchitectureThrowsInProcess) {
  EXPECT_THROW(build_architecture("pdp-11"), InvalidArgument);
  EXPECT_EQ(known_architectures().size(), 3u);
}

TEST(Socket, FramesRoundTripAcrossAConnection) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sce_socket_test.sock")
          .string();
  UnixListener listener(path);

  std::thread echo([&listener] {
    UnixSocket peer = listener.accept();
    for (;;) {
      const auto frame = peer.recv_frame();
      if (!frame.has_value()) return;  // client hung up
      peer.send_frame(*frame + *frame);
    }
  });

  UnixSocket client = UnixSocket::connect_to(path);
  EXPECT_EQ(request_reply(client, "abc"), "abcabc");
  EXPECT_EQ(request_reply(client, ""), "");
  // A frame with embedded NULs and high bytes survives unmangled.
  std::string binary("\x00\xff\x7f ok", 6);
  EXPECT_EQ(request_reply(client, binary), binary + binary);
  // A larger-than-buffer frame round trips too.
  const std::string big(1 << 20, 'x');
  EXPECT_EQ(request_reply(client, big).size(), big.size() * 2);

  client.close();
  echo.join();
}

TEST(Socket, ServesTheProtocolEndToEnd) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sce_socket_e2e.sock")
          .string();
  EvaluationServer server(test_server_config("sockete2e"));
  SocketFrontEnd front_end(server, path);
  std::thread serving([&front_end] { front_end.serve(); });

  nn::Sequential model = build_architecture("mnist-cnn");
  util::Rng rng(2);
  model.initialize(rng);

  {
    UnixSocket client = UnixSocket::connect_to(path);
    const util::JsonValue submit = util::parse_json(request_reply(
        client, make_submit_request("mnist-cnn", model, small_zoo_config())));
    ASSERT_TRUE(submit.at("ok").as_bool());
    const auto id = static_cast<std::uint64_t>(submit.at("id").as_int());

    const util::JsonValue waited = util::parse_json(
        request_reply(client, make_wait_request(id)));
    EXPECT_EQ(parse_status(waited.at("status")).state,
              JobState::kCompleted);

    // Second client, identical submission: a cache hit over the wire.
    UnixSocket rival = UnixSocket::connect_to(path);
    const util::JsonValue again = util::parse_json(request_reply(
        rival, make_submit_request("mnist-cnn", model, small_zoo_config())));
    EXPECT_TRUE(parse_status(again.at("status")).from_cache);

    const util::JsonValue shutdown = util::parse_json(
        request_reply(client, make_shutdown_request()));
    EXPECT_TRUE(shutdown.at("ok").as_bool());
  }
  serving.join();
  EXPECT_EQ(server.stats().cache_completions, 1u);
}

TEST(Socket, DeepFrameIsRejectedAndServingContinues) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sce_socket_deep.sock")
          .string();
  EvaluationServer server(test_server_config("socketdeep"));
  SocketFrontEnd front_end(server, path);
  std::thread serving([&front_end] { front_end.serve(); });

  {
    UnixSocket hostile = UnixSocket::connect_to(path);
    const util::JsonValue reply = util::parse_json(
        request_reply(hostile, std::string(100000, '[')));
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error_type").as_string(), "invalid-argument");
  }
  {
    UnixSocket client = UnixSocket::connect_to(path);
    const util::JsonValue shutdown = util::parse_json(
        request_reply(client, make_shutdown_request()));
    EXPECT_TRUE(shutdown.at("ok").as_bool());
  }
  serving.join();
}

/// This process's virtual size in KiB (the VmSize line of
/// /proc/self/status).
long vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  return 0;
}

TEST(Socket, FinishedConnectionThreadsAreReaped) {
  // Every connection runs on its own thread.  A finished one must be
  // joined while serve() keeps accepting, or each keeps its stack (8 MiB
  // by default) mapped until the server shuts down.
  const std::string path =
      (std::filesystem::temp_directory_path() / "sce_socket_reap.sock")
          .string();
  EvaluationServer server(test_server_config("socketreap"));
  SocketFrontEnd front_end(server, path);
  std::thread serving([&front_end] { front_end.serve(); });

  const auto one_connection = [&path] {
    UnixSocket client = UnixSocket::connect_to(path);
    EXPECT_TRUE(util::parse_json(request_reply(client, make_stats_request()))
                    .at("ok")
                    .as_bool());
  };
  // Warm up: the first handlers also create malloc arenas (64 MiB of
  // address space each) that later handlers reuse.  A handler that starts
  // before its predecessor has exited can still add one, so the bound
  // leaves room for a few arenas; 64 leaked stacks take 512 MiB.
  for (int i = 0; i < 16; ++i) one_connection();
  const long before = vm_size_kib();
  for (int i = 0; i < 64; ++i) one_connection();  // one at a time
  const long grown_kib = vm_size_kib() - before;
  EXPECT_LT(grown_kib, 256 * 1024)
      << "64 sequential connections grew the virtual size by " << grown_kib
      << " KiB";

  {
    UnixSocket client = UnixSocket::connect_to(path);
    EXPECT_TRUE(util::parse_json(request_reply(client, make_shutdown_request()))
                    .at("ok")
                    .as_bool());
  }
  serving.join();
}

}  // namespace
}  // namespace sce::service
