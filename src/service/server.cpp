#include "service/server.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "analysis/symexec/verifier.hpp"
#include "core/checkpoint.hpp"
#include "core/evaluator.hpp"
#include "core/report.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sce::service {

EvaluationServer::EvaluationServer(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity == 0 ? 1 : config_.cache_capacity) {
  if (config_.executors == 0) config_.executors = 1;
  if (config_.progress_every == 0) config_.progress_every = 1;
  if (!config_.instruments)
    config_.instruments = [] {
      return std::make_unique<hpc::SimulatedPmuFactory>();
    };
  std::filesystem::create_directories(config_.work_dir);
  pool_ = std::make_unique<util::ThreadPool>(config_.executors);
  // One persistent executor loop per worker: every campaign leg of every
  // tenant executes on this one shared pool.
  for (std::size_t i = 0; i < config_.executors; ++i)
    pool_->submit([this] { executor_loop(); });
}

EvaluationServer::~EvaluationServer() { shutdown(); }

std::uint64_t EvaluationServer::submit(nn::Sequential model,
                                       JobConfig config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw Error("service: server is shutting down");
  }

  auto job = std::make_unique<Job>();
  job->config = std::move(config);
  job->model = std::move(model);

  // Terminal-at-submit path shared by rejections and cache hits.
  auto finalize = [this](std::unique_ptr<Job> done) -> std::uint64_t {
    std::lock_guard<std::mutex> lock(mutex_);
    done->id = next_id_++;
    done->seq = done->id;
    done->progress_seq = 1;
    ++stats_.submissions;
    if (done->state == JobState::kRejected) ++stats_.rejected;
    if (done->state == JobState::kCompleted) {
      ++stats_.completed;
      ++stats_.cache_completions;
    }
    Job* raw = done.get();
    jobs_.emplace(raw->id, std::move(done));
    state_changed_.notify_all();
    return raw->id;
  };

  auto reject = [&](std::string domain, std::string field,
                    std::string constraint,
                    std::string message) -> std::uint64_t {
    job->state = JobState::kRejected;
    job->reject_domain = std::move(domain);
    job->reject_field = std::move(field);
    job->reject_constraint = std::move(constraint);
    job->error = std::move(message);
    return finalize(std::move(job));
  };

  // --- Admission: structured config validation -------------------------
  try {
    job->config.validate();
  } catch (const ValidationError& e) {
    return reject(e.domain(), e.field(), e.constraint(), e.what());
  }

  job->model_digest = nn::model_digest(job->model);
  job->config_digest = config_digest(job->config);
  job->measurements_target =
      job->config.categories.size() * job->config.samples_per_category;

  // --- Result cache: identical submissions are free --------------------
  // The analyzer version is part of the key: an upgraded lint gate must
  // re-judge a submission, not replay a verdict from the old analyzer.
  if (auto cached = cache_.lookup(job->model_digest, job->config_digest,
                                  analysis::analyzer_version())) {
    job->state = JobState::kCompleted;
    job->from_cache = true;
    job->report_json = std::move(cached->report_json);
    job->measurements_recorded = cached->measurements;
    job->measurements_executed = 0;
    return finalize(std::move(job));
  }

  // --- Admission: the static lint gate ---------------------------------
  analysis::LintOptions lint_options;
  lint_options.mode = job->config.kernel_mode;
  lint_options.model_name = "submission";
  lint_options.fail_on = config_.admit_fail_on;
  lint_options.fail_on_undeclared = config_.admit_fail_on_undeclared;
  lint_options.cross_check = config_.admit_cross_check;
  try {
    const analysis::LintReport lint = analysis::lint(
        job->model, dataset_input_shape(job->config.dataset), lint_options);
    if (!lint.passed)
      return reject("lint", "model", lint.failure,
                    "lint: model " + lint.failure);
  } catch (const Error& e) {
    // Shape-inference failures: the model cannot consume this dataset.
    return reject("lint", "model", e.what(), std::string("lint: ") + e.what());
  }

  // Dataset synthesis is deterministic but not free — do it before
  // taking the scheduler lock.
  job->dataset = make_dataset(job->config.dataset);

  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw Error("service: server is shutting down");
  job->id = next_id_++;
  job->seq = job->id;
  job->job_token = server_token_.child();
  job->checkpoint_path = config_.work_dir + "/" +
                         job->model_digest.substr(0, 8) + "-" +
                         job->config_digest.substr(0, 8) + "-job" +
                         std::to_string(job->id) + ".ckpt";
  job->state = JobState::kQueued;
  ++stats_.submissions;
  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));
  ready_.insert(raw);
  bump_locked(*raw);
  maybe_preempt_locked();
  work_ready_.notify_one();
  return raw->id;
}

void EvaluationServer::executor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (stopping_) return;
    Job* job = *ready_.begin();
    ready_.erase(ready_.begin());
    job->state = JobState::kRunning;
    job->preempt_requested = false;
    job->leg_token = job->job_token.child();
    ++job->legs;
    running_.insert(job);
    bump_locked(*job);
    lock.unlock();
    run_leg(*job);
    lock.lock();
  }
}

void EvaluationServer::run_leg(Job& job) {
  core::CampaignResult result;
  std::string error;
  bool ok = false;
  try {
    auto factory = config_.instruments();
    core::Campaign campaign(job.model, job.dataset, *factory);
    core::CampaignConfig cc = to_campaign_config(job.config);
    cc.cancel = job.leg_token;
    cc.checkpoint_path = job.checkpoint_path;
    if (job.config.deadline.count() > 0) cc.deadline = job.config.deadline;
    campaign.with_config(cc).on_progress(
        [this, &job](const core::CampaignProgress& p) {
          std::lock_guard<std::mutex> lock(mutex_);
          job.measurements_recorded = p.measurements_recorded;
          job.measurements_target = p.measurements_target;
          bump_locked(job);
        },
        config_.progress_every);
    if (job.has_checkpoint)
      result = campaign.resume(core::load_checkpoint(job.checkpoint_path));
    else
      result = campaign.run();
    ok = true;
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  running_.erase(&job);
  if (!ok) {
    fail_job_locked(job, error);
    return;
  }
  finish_leg_locked(job, std::move(result), lock);
}

void EvaluationServer::finish_leg_locked(Job& job, core::CampaignResult result,
                                         std::unique_lock<std::mutex>& lock) {
  switch (result.diagnostics.stop_reason) {
    case core::StopReason::kCompleted: {
      // Rendering runs the evaluator's full test battery — do it off the
      // scheduler lock so other tenants keep moving.
      lock.unlock();
      std::string report = make_report_json(job.model_digest,
                                            job.config_digest, job.config,
                                            result);
      lock.lock();
      job.report_json = std::move(report);
      job.measurements_recorded = result.diagnostics.measurements_recorded;
      job.measurements_executed = result.diagnostics.measurements_recorded;
      stats_.measurements_executed += job.measurements_executed;
      job.state = JobState::kCompleted;
      ++stats_.completed;
      cache_.insert(job.model_digest, job.config_digest,
                    analysis::analyzer_version(),
                    CachedResult{job.report_json, job.measurements_executed});
      // The checkpoint (and its rotation sibling) served its purpose.
      std::error_code ec;
      std::filesystem::remove(job.checkpoint_path, ec);
      std::filesystem::remove(job.checkpoint_path + ".prev", ec);
      job.has_checkpoint = false;
      bump_locked(job);
      return;
    }
    case core::StopReason::kCancelled: {
      if (stopping_ || job.job_token.cancelled()) {
        job.state = JobState::kCancelled;
        job.error =
            stopping_ ? "server shutdown" : job.job_token.message();
        ++stats_.cancelled;
        bump_locked(job);
        return;
      }
      if (job.preempt_requested) {
        // Evicted for a higher-priority tenant: the campaign flushed a
        // durable checkpoint on its way out, so the job re-enters the
        // queue and resumes bit-identically later.
        job.has_checkpoint = std::filesystem::exists(job.checkpoint_path);
        job.measurements_recorded = result.diagnostics.measurements_recorded;
        ++job.preemptions;
        ++stats_.preemptions;
        job.state = JobState::kPreempted;
        ready_.insert(&job);
        bump_locked(job);
        work_ready_.notify_one();
        return;
      }
      // A leg token tripped by nothing we know about — treat as cancel.
      job.state = JobState::kCancelled;
      job.error = "cancelled";
      ++stats_.cancelled;
      bump_locked(job);
      return;
    }
    case core::StopReason::kDeadline:
      fail_job_locked(job, "deadline of " +
                               std::to_string(job.config.deadline.count()) +
                               " ms exceeded");
      return;
  }
  fail_job_locked(job, "campaign stopped for an unknown reason");
}

void EvaluationServer::fail_job_locked(Job& job, const std::string& why) {
  job.state = JobState::kFailed;
  job.error = why;
  ++stats_.failed;
  bump_locked(job);
}

void EvaluationServer::maybe_preempt_locked() {
  if (ready_.empty() || running_.size() < config_.executors) return;
  Job* best = *ready_.begin();
  Job* victim = nullptr;
  for (Job* r : running_) {
    if (r->preempt_requested) continue;  // already winding down
    if (victim == nullptr ||
        r->config.priority < victim->config.priority ||
        (r->config.priority == victim->config.priority &&
         r->seq > victim->seq))
      victim = r;
  }
  if (victim == nullptr || victim->config.priority >= best->config.priority)
    return;
  victim->preempt_requested = true;
  victim->leg_token.cancel("preempted by higher-priority job " +
                           std::to_string(best->id));
}

JobStatus EvaluationServer::snapshot_locked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.state = job.state;
  s.priority = job.config.priority;
  s.model_digest = job.model_digest;
  s.config_digest = job.config_digest;
  s.from_cache = job.from_cache;
  s.measurements_recorded = job.measurements_recorded;
  s.measurements_target = job.measurements_target;
  s.measurements_executed = job.measurements_executed;
  s.preemptions = job.preemptions;
  s.legs = job.legs;
  s.progress_seq = job.progress_seq;
  s.error = job.error;
  s.reject_domain = job.reject_domain;
  s.reject_field = job.reject_field;
  s.reject_constraint = job.reject_constraint;
  return s;
}

EvaluationServer::Job& EvaluationServer::find_locked(std::uint64_t id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw InvalidArgument("service: unknown job id " + std::to_string(id));
  return *it->second;
}

const EvaluationServer::Job& EvaluationServer::find_locked(
    std::uint64_t id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw InvalidArgument("service: unknown job id " + std::to_string(id));
  return *it->second;
}

JobStatus EvaluationServer::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(find_locked(id));
}

JobStatus EvaluationServer::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job& job = find_locked(id);
  state_changed_.wait(lock, [&job] { return is_terminal(job.state); });
  return snapshot_locked(job);
}

JobStatus EvaluationServer::wait_progress(std::uint64_t id,
                                          std::uint64_t last_seq) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job& job = find_locked(id);
  state_changed_.wait(lock, [&job, last_seq] {
    return job.progress_seq > last_seq || is_terminal(job.state);
  });
  return snapshot_locked(job);
}

bool EvaluationServer::cancel(std::uint64_t id, const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = find_locked(id);
  if (is_terminal(job.state)) return false;
  job.job_token.cancel(why);
  if (job.state == JobState::kQueued || job.state == JobState::kPreempted) {
    ready_.erase(&job);
    job.state = JobState::kCancelled;
    job.error = why;
    ++stats_.cancelled;
    bump_locked(job);
  }
  // A running job's leg token is a child of the job token: the campaign
  // stops at its next safe point and finish_leg_locked records the
  // cancel.
  return true;
}

std::string EvaluationServer::report(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Job& job = find_locked(id);
  if (job.state != JobState::kCompleted)
    throw InvalidArgument("service: job " + std::to_string(id) +
                          " has no report (state " + to_string(job.state) +
                          ")");
  return job.report_json;
}

ServerStats EvaluationServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void EvaluationServer::shutdown() {
  std::unique_ptr<util::ThreadPool> pool;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    server_token_.cancel("server shutdown");
    for (Job* j : ready_) {
      j->state = JobState::kCancelled;
      j->error = "server shutdown";
      ++stats_.cancelled;
      ++j->progress_seq;
    }
    ready_.clear();
    pool = std::move(pool_);
    work_ready_.notify_all();
    state_changed_.notify_all();
  }
  // Joining outside the lock: running legs need the mutex to finish, and
  // their tokens are already tripped via the server token.
  pool.reset();
}

std::string make_report_json(const std::string& model_digest,
                             const std::string& config_digest,
                             const JobConfig& config,
                             const core::CampaignResult& campaign) {
  core::EvaluatorConfig evaluator;
  evaluator.alpha = config.alpha;
  const core::LeakageAssessment assessment =
      core::evaluate(campaign, evaluator);
  const std::string table =
      core::render_paper_table(assessment, evaluator.events);
  // Spliced by hand because the assessment renderer produces a complete
  // JSON document of its own; everything here is deterministic given the
  // campaign samples, which is what makes cached reports byte-identical.
  std::string out = "{\"model_digest\":" + util::json_quote(model_digest);
  out += ",\"config_digest\":" + util::json_quote(config_digest);
  out += ",\"config\":" + canonical_config_json(config);
  out += ",\"measurements\":" +
         std::to_string(campaign.diagnostics.measurements_recorded);
  out += std::string(",\"alarm_raised\":") +
         (assessment.alarm_raised() ? "true" : "false");
  out += ",\"table\":" + util::json_quote(table);
  out += ",\"assessment\":" + core::render_json(assessment);
  out += "}";
  return out;
}

}  // namespace sce::service
