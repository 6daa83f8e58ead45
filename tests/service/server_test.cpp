#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "hpc/instrument_factory.hpp"
#include "service/server.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "tests/core/campaign_helpers.hpp"
#include "util/error.hpp"

namespace sce::service {
namespace {

/// Factory-of-factories for the trace-pure PMU: counters are a pure
/// function of the dynamic trace, so every run of the same (model,
/// config) is bit-identical — the provider the bit-identity promises
/// are stated for.
std::unique_ptr<hpc::InstrumentFactory> make_trace_pure() {
  return std::make_unique<hpc::CallbackInstrumentFactory>(
      [](std::size_t, std::size_t) {
        return hpc::Instrument::adopt(
            std::make_unique<core::testing::TracePurePmu>());
      },
      "trace-pure");
}

JobConfig tiny_job_config(std::size_t samples = 4) {
  JobConfig config;
  config.dataset.kind = "mnist-like";
  config.dataset.seed = 4;
  config.dataset.num_classes = 4;
  config.dataset.examples_per_class = 6;
  config.dataset.crop = 12;
  config.samples_per_category = samples;
  config.warmup_measurements = 1;
  return config;
}

ServerConfig test_server_config(const std::string& tag,
                                std::size_t executors = 2) {
  ServerConfig config;
  config.executors = executors;
  config.work_dir =
      (std::filesystem::temp_directory_path() / ("sce_service_test_" + tag))
          .string();
  config.instruments = make_trace_pure;
  return config;
}

TEST(EvaluationServer, RunsOneJobToCompletion) {
  EvaluationServer server(test_server_config("single"));
  const std::uint64_t id =
      server.submit(core::testing::tiny_model(), tiny_job_config());
  const JobStatus status = server.wait(id);
  EXPECT_EQ(status.state, JobState::kCompleted);
  EXPECT_FALSE(status.from_cache);
  EXPECT_EQ(status.measurements_recorded, 16u);  // 4 categories x 4
  EXPECT_EQ(status.measurements_executed, 16u);

  const std::string report = server.report(id);
  EXPECT_NE(report.find("\"model_digest\""), std::string::npos);
  EXPECT_NE(report.find("\"table\""), std::string::npos);
  EXPECT_NE(report.find("\"assessment\""), std::string::npos);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submissions, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.measurements_executed, 16u);
}

TEST(EvaluationServer, IdenticalResubmissionIsServedFromCache) {
  EvaluationServer server(test_server_config("cache"));
  const std::uint64_t first =
      server.submit(core::testing::tiny_model(), tiny_job_config());
  ASSERT_EQ(server.wait(first).state, JobState::kCompleted);
  const std::string first_report = server.report(first);

  // Same weights, same result-affecting config (scheduling fields may
  // differ): must be answered from the cache with zero new measurements.
  JobConfig resubmit = tiny_job_config();
  resubmit.priority = Priority::kHigh;
  const std::uint64_t second =
      server.submit(core::testing::tiny_model(), resubmit);
  const JobStatus status = server.wait(second);
  EXPECT_EQ(status.state, JobState::kCompleted);
  EXPECT_TRUE(status.from_cache);
  EXPECT_EQ(status.measurements_executed, 0u);
  EXPECT_EQ(server.report(second), first_report);  // byte-identical

  const CacheStats cache = server.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.measurements_saved, 16u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_completions, 1u);
  EXPECT_EQ(stats.measurements_executed, 16u);  // only the first run
}

TEST(EvaluationServer, DifferentConfigMissesCache) {
  EvaluationServer server(test_server_config("cachemiss"));
  const std::uint64_t first =
      server.submit(core::testing::tiny_model(), tiny_job_config(4));
  ASSERT_EQ(server.wait(first).state, JobState::kCompleted);
  const std::uint64_t second =
      server.submit(core::testing::tiny_model(), tiny_job_config(5));
  EXPECT_FALSE(server.wait(second).from_cache);
  EXPECT_EQ(server.cache_stats().hits, 0u);
  EXPECT_EQ(server.cache_stats().misses, 2u);
}

TEST(EvaluationServer, ValidationRejectionCarriesStructuredCause) {
  EvaluationServer server(test_server_config("reject"));
  JobConfig bad = tiny_job_config();
  bad.alpha = 2.0;
  const std::uint64_t id = server.submit(core::testing::tiny_model(), bad);
  const JobStatus status = server.status(id);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_EQ(status.reject_domain, "job");
  EXPECT_EQ(status.reject_field, "alpha");
  EXPECT_FALSE(status.error.empty());
  EXPECT_EQ(server.stats().rejected, 1u);
  // wait() on an already-terminal job returns immediately.
  EXPECT_EQ(server.wait(id).state, JobState::kRejected);
}

TEST(EvaluationServer, OversizedJobIsRejectedBeforeAnythingIsBuilt) {
  // A tenant must not be able to make the server mint thousands of rigs
  // or threads, synthesise a huge dataset inside submit(), or hold an
  // executor for millions of measurements.  (A negative JSON count never
  // gets this far: the decoder refuses it.)  Only admission is
  // exercised: none of these jobs may run.
  EvaluationServer server(test_server_config("oversized"));
  const std::pair<std::string, std::string> cases[] = {
      {"num_shards", R"({"num_shards": 100000})"},
      {"num_threads", R"({"num_threads": 100000})"},
      {"dataset.examples_per_class",
       R"({"dataset": {"examples_per_class": 100000}})"},
      {"samples_per_category", R"({"samples_per_category": 1000000})"},
      {"warmup_measurements", R"({"warmup_measurements": 1000000})"},
  };
  for (const auto& [field, json] : cases) {
    const std::uint64_t id =
        server.submit(core::testing::tiny_model(), job_config_from_json(json));
    const JobStatus status = server.status(id);
    EXPECT_EQ(status.state, JobState::kRejected) << json;
    EXPECT_EQ(status.reject_domain, "job") << json;
    EXPECT_EQ(status.reject_field, field) << json;
    EXPECT_EQ(status.measurements_executed, 0u) << json;
  }
  EXPECT_EQ(server.stats().rejected, std::size(cases));
  EXPECT_EQ(server.stats().measurements_executed, 0u);
}

TEST(EvaluationServer, LintGateRejectsLeakyModelWhenConfigured) {
  ServerConfig config = test_server_config("lintgate");
  config.admit_fail_on = analysis::Verdict::kLeaksControlFlow;
  EvaluationServer server(std::move(config));

  // Data-dependent kernels leak control flow — the gate must trip.
  const std::uint64_t leaky =
      server.submit(core::testing::tiny_model(), tiny_job_config());
  const JobStatus rejected = server.status(leaky);
  EXPECT_EQ(rejected.state, JobState::kRejected);
  EXPECT_EQ(rejected.reject_domain, "lint");

  // The same model under constant-flow kernels passes the same gate.
  JobConfig constant_flow = tiny_job_config();
  constant_flow.kernel_mode = nn::KernelMode::kConstantFlow;
  const std::uint64_t admitted =
      server.submit(core::testing::tiny_model(), constant_flow);
  EXPECT_EQ(server.wait(admitted).state, JobState::kCompleted);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(EvaluationServer, OverrunningSymbolicModelIsRejectedAtAdmission) {
  // A custom layer whose symbolic model stores past its output buffer
  // makes the lint throw; admission turns that into a lint rejection.
  EvaluationServer server(test_server_config("overrun"));
  nn::Sequential model = core::testing::tiny_model();
  model.add(std::make_unique<analysis::testing::OverrunningModelLayer>());
  const std::uint64_t id = server.submit(std::move(model), tiny_job_config());
  const JobStatus status = server.status(id);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_EQ(status.reject_domain, "lint");
  EXPECT_NE(status.error.find("element 4"), std::string::npos)
      << status.error;
}

TEST(EvaluationServer, ModelDatasetShapeMismatchIsRejectedAtAdmission) {
  EvaluationServer server(test_server_config("shape"));
  JobConfig full_size = tiny_job_config();
  full_size.dataset.crop = 0;  // 28x28 inputs into a 12x12 model
  const std::uint64_t id =
      server.submit(core::testing::tiny_model(), full_size);
  const JobStatus status = server.status(id);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_EQ(status.reject_domain, "lint");
}

TEST(EvaluationServer, UnknownJobIdThrows) {
  EvaluationServer server(test_server_config("unknown"));
  EXPECT_THROW(server.status(42), InvalidArgument);
  EXPECT_THROW(server.report(42), InvalidArgument);
}

TEST(EvaluationServer, ConcurrentSubmissionsAllComplete) {
  EvaluationServer server(test_server_config("concurrent", 3));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    JobConfig config = tiny_job_config();
    config.dataset.seed = 10 + seed;  // six distinct evaluations
    ids.push_back(server.submit(core::testing::tiny_model(), config));
  }
  for (const std::uint64_t id : ids) {
    const JobStatus status = server.wait(id);
    EXPECT_EQ(status.state, JobState::kCompleted) << status.error;
    EXPECT_EQ(status.measurements_recorded, 16u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.measurements_executed, 6u * 16u);
}

TEST(EvaluationServer, CancelQueuedJobIsImmediate) {
  EvaluationServer server(test_server_config("cancelqueued", 1));
  // Occupy the single executor with a long job, then queue another.
  const std::uint64_t running =
      server.submit(core::testing::tiny_model(), tiny_job_config(64));
  const std::uint64_t queued =
      server.submit(core::testing::tiny_model(), tiny_job_config(63));
  EXPECT_TRUE(server.cancel(queued, "changed my mind"));
  const JobStatus status = server.status(queued);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.error, "changed my mind");
  EXPECT_FALSE(server.cancel(queued));  // already terminal

  EXPECT_TRUE(server.cancel(running));
  const JobStatus stopped = server.wait(running);
  EXPECT_EQ(stopped.state, JobState::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 2u);
}

TEST(EvaluationServer, WaitProgressObservesAdvancingSequence) {
  EvaluationServer server(test_server_config("progress", 1));
  const std::uint64_t id =
      server.submit(core::testing::tiny_model(), tiny_job_config(8));
  std::uint64_t last_seq = 0;
  JobStatus status;
  for (;;) {
    status = server.wait_progress(id, last_seq);
    EXPECT_GE(status.progress_seq, last_seq);
    last_seq = status.progress_seq;
    if (status.terminal()) break;
  }
  EXPECT_EQ(status.state, JobState::kCompleted);
  // progress_every=1 bumps the sequence at every chunk barrier, so the
  // final cursor reflects every one of the 32 recorded measurements.
  EXPECT_GE(status.progress_seq, 32u);
}

TEST(EvaluationServer, PreemptedJobResumesBitIdenticalToUncontendedRun) {
  // Reference: the same (model, config) evaluated on an idle server.
  // The budget is deliberately large (4 x 512 measurements, ~100ms of
  // tiny-model work) so the victim is still mid-flight when the rival
  // arrives.
  const JobConfig config = tiny_job_config(512);
  std::string uncontended_report;
  {
    EvaluationServer server(test_server_config("uncontended", 1));
    const std::uint64_t id =
        server.submit(core::testing::tiny_model(), config);
    ASSERT_EQ(server.wait(id).state, JobState::kCompleted);
    uncontended_report = server.report(id);
  }

  // Contended: a low-priority job is evicted mid-flight by a
  // high-priority tenant, checkpoints, and resumes.
  EvaluationServer server(test_server_config("contended", 1));
  JobConfig low = config;
  low.priority = Priority::kLow;
  const std::uint64_t victim =
      server.submit(core::testing::tiny_model(), low);
  // Make sure the victim is actually running before the rival arrives.
  std::uint64_t seq = 0;
  for (;;) {
    const JobStatus status = server.wait_progress(victim, seq);
    ASSERT_FALSE(status.terminal()) << "victim finished too early";
    seq = status.progress_seq;
    if (status.state == JobState::kRunning &&
        status.measurements_recorded >= 1)
      break;
  }

  JobConfig high = tiny_job_config(4);
  high.priority = Priority::kHigh;
  high.dataset.seed = 77;  // distinct work, not a cache hit
  const std::uint64_t rival =
      server.submit(core::testing::tiny_model(), high);

  const JobStatus rival_status = server.wait(rival);
  EXPECT_EQ(rival_status.state, JobState::kCompleted) << rival_status.error;

  const JobStatus victim_status = server.wait(victim);
  ASSERT_EQ(victim_status.state, JobState::kCompleted)
      << victim_status.error;
  EXPECT_GE(victim_status.preemptions, 1u);
  EXPECT_GE(victim_status.legs, 2u);
  EXPECT_EQ(victim_status.measurements_recorded, 4u * 512u);

  // The acceptance bar: evicted + resumed == uncontended, byte for byte.
  EXPECT_EQ(server.report(victim), uncontended_report);
  EXPECT_GE(server.stats().preemptions, 1u);
}

TEST(EvaluationServer, ShutdownCancelsOutstandingJobs) {
  EvaluationServer server(test_server_config("shutdown", 1));
  const std::uint64_t running =
      server.submit(core::testing::tiny_model(), tiny_job_config(64));
  const std::uint64_t queued =
      server.submit(core::testing::tiny_model(), tiny_job_config(63));
  server.shutdown();
  EXPECT_TRUE(is_terminal(server.status(running).state));
  EXPECT_EQ(server.status(queued).state, JobState::kCancelled);
  EXPECT_THROW(
      server.submit(core::testing::tiny_model(), tiny_job_config()), Error);
  server.shutdown();  // idempotent
}

TEST(EvaluationServer, DeadlineBlownJobFails) {
  EvaluationServer server(test_server_config("deadline", 1));
  JobConfig config = tiny_job_config(2048);
  config.deadline = std::chrono::milliseconds(1);
  const std::uint64_t id =
      server.submit(core::testing::tiny_model(), config);
  const JobStatus status = server.wait(id);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("deadline"), std::string::npos)
      << status.error;
  EXPECT_EQ(server.stats().failed, 1u);
}

}  // namespace
}  // namespace sce::service
