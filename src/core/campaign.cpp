#include "core/campaign.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/acquisition.hpp"
#include "core/acquisition_keys.hpp"
#include "core/checkpoint.hpp"
#include "nn/plan.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sce::core {

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kDeadline:
      return "deadline";
  }
  return "completed";
}

StopReason parse_stop_reason(const std::string& name) {
  for (StopReason r : {StopReason::kCompleted, StopReason::kCancelled,
                       StopReason::kDeadline})
    if (to_string(r) == name) return r;
  throw InvalidArgument("campaign: unknown stop reason \"" + name + "\"");
}

namespace acquisition {

CategoryPools category_pools(const data::Dataset& dataset,
                             const std::vector<int>& categories,
                             std::size_t per_category, bool allow_image_reuse,
                             const std::string& domain) {
  CategoryPools out;
  for (int label : categories) {
    if (label < 0 || static_cast<std::size_t>(label) >= dataset.num_classes())
      throw InvalidArgument(domain + ": category label out of range");
    out.names.push_back(dataset.class_names()[static_cast<std::size_t>(label)]);
    out.pools.push_back(dataset.examples_of(label));
    if (out.pools.back().empty())
      throw InvalidArgument(domain + ": no examples of category " +
                            std::to_string(label));
    if (out.pools.back().size() < per_category && !allow_image_reuse)
      throw InvalidArgument(domain + ": not enough images of category " +
                            std::to_string(label));
  }
  return out;
}

util::CancelToken run_token(const util::CancelToken& parent,
                            std::chrono::milliseconds deadline) {
  util::CancelToken token = parent.child();
  if (deadline > std::chrono::milliseconds::zero())
    token.set_deadline_after(deadline);
  return token;
}

StopReason stop_reason_of(const util::CancelToken& token) {
  return token.reason() == util::CancelReason::kDeadline
             ? StopReason::kDeadline
             : StopReason::kCancelled;
}

}  // namespace acquisition

void CampaignConfig::validate() const {
  if (categories.empty())
    throw ValidationError("campaign", "categories", "must not be empty");
  if (samples_per_category == 0)
    throw ValidationError("campaign", "samples_per_category", "must be > 0");
  if (num_shards == 0)
    throw ValidationError("campaign", "num_shards", "must be >= 1");
  retry.validate();
  if (checkpoint_every > 0 && checkpoint_path.empty())
    throw ValidationError("campaign", "checkpoint_path",
                          "required when checkpoint_every is set");
  if (deadline < std::chrono::milliseconds::zero())
    throw ValidationError("campaign", "deadline", "must be >= 0");
}

bool CampaignDiagnostics::event_dropped(hpc::HpcEvent event) const {
  return std::find(dropped_events.begin(), dropped_events.end(), event) !=
         dropped_events.end();
}

bool CampaignDiagnostics::event_unsupported(hpc::HpcEvent event) const {
  return std::find(unsupported_events.begin(), unsupported_events.end(),
                   event) != unsupported_events.end();
}

std::string CampaignDiagnostics::summary() const {
  std::string s = "recorded " + std::to_string(measurements_recorded) + "/" +
                  std::to_string(measurements_attempted) + " attempts, " +
                  std::to_string(transient_faults) + " transient faults, " +
                  std::to_string(incomplete_samples) + " incomplete samples, " +
                  std::to_string(failed_measurements) + " slots failed";
  if (shard_recorded.size() > 1)
    s += ", " + std::to_string(shard_recorded.size()) + " shards";
  if (!dropped_events.empty()) {
    s += ", dropped:";
    for (hpc::HpcEvent e : dropped_events) s += " " + hpc::to_string(e);
  }
  if (!unsupported_events.empty()) {
    s += ", unsupported:";
    for (hpc::HpcEvent e : unsupported_events) s += " " + hpc::to_string(e);
  }
  if (!lost_instrument_shards.empty()) {
    s += ", lost instruments on shards:";
    for (std::size_t k : lost_instrument_shards) s += " " + std::to_string(k);
    s += " (" + std::to_string(failed_over_measurements) + " failed over)";
  }
  s += complete ? ", complete" : ", partial";
  if (stop_reason != StopReason::kCompleted)
    s += " (" + to_string(stop_reason) + ")";
  return s;
}

const std::vector<double>& CampaignResult::of(
    hpc::HpcEvent event, std::size_t category_index) const {
  const auto& per_event = samples[static_cast<std::size_t>(event)];
  if (category_index >= per_event.size())
    throw InvalidArgument("CampaignResult::of: category index out of range");
  return per_event[category_index];
}

bool CampaignResult::has_event(hpc::HpcEvent event) const {
  const auto& per_event = samples[static_cast<std::size_t>(event)];
  for (const auto& cell : per_event)
    if (!cell.empty()) return true;
  return false;
}

double CampaignResult::mean(hpc::HpcEvent event,
                            std::size_t category_index) const {
  const auto& xs = of(event, category_index);
  if (xs.empty()) throw InvalidArgument("CampaignResult::mean: empty cell");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

namespace {

// Measurement keys come from core/acquisition_keys.hpp so the replay
// sweep (sweep.cpp) keys its replayed measurements identically.
using acquisition::InputPools;
using acquisition::slot_key;
using acquisition::warmup_key;

/// One shard's private acquisition state.  Nothing in here is touched by
/// more than one thread at a time: workers own it during a chunk, the
/// coordinator between chunks.
///
/// The state and the instrument are deliberately separable: the work
/// side (ranges, cursors, cells, plan, staging buffers) describes WHAT
/// to acquire, the rig side (instrument + its health/warmth) describes
/// what to acquire it WITH.  When an instrument dies, the shard's work
/// state survives and is executed on a healthy shard's rig — and
/// because every measurement is keyed by its global slot index, the
/// values recorded on the adopting rig are the ones a fault-free run
/// would have recorded.
struct ShardState {
  explicit ShardState(hpc::Instrument ins) : instrument(std::move(ins)) {}

  std::size_t index = 0;
  hpc::Instrument instrument;
  std::unique_ptr<nn::InferencePlan> plan;
  nn::Tensor staged;

  // --- Recall memo (about `plan` measured on this shard's own rig) ---
  /// The instrument, when it is a SimulatedPmu that is its own sink and
  /// whose workload counts are a pure function of the input
  /// (SimulatedPmuConfig::workload_counts_are_pure); null otherwise.
  const hpc::SimulatedPmu* pure_pmu = nullptr;
  /// Pre-overlay workload counts of every input `plan` has run on
  /// `pure_pmu`, keyed by the measured example.  Cache counts depend on
  /// the plan's buffer addresses, so the memo belongs to this work state
  /// and is consulted only when this shard is its own rig.
  std::unordered_map<const data::Example*, hpc::CounterSample> recall;

  // --- Rig health (about `instrument`, not about this shard's work) ---
  /// Consecutive retry-exhausted slots measured on this rig; reset by
  /// every recorded slot.  Crossing instrument_lost_after declares the
  /// rig lost.
  std::size_t consecutive_exhausted = 0;
  /// Set once this rig is declared lost; the shard's work is then
  /// executed on an adopting rig and this instrument is never touched
  /// again.
  bool instrument_lost = false;

  /// Absolute sample-index range [lo, hi) this shard owns in every
  /// category, and the per-category cursor (next absolute index).
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::vector<std::size_t> cursor;
  /// Attempt ordinals already spent on each category's *current* slot.
  /// Persisted across acquire_slot calls so a failed slot that is
  /// re-picked continues with fresh measurement keys instead of
  /// replaying the exact draws that just failed (keyed providers would
  /// livelock otherwise).  Reset to 0 when the slot records.
  std::vector<std::size_t> slot_attempts;

  /// cells[event][category] — this shard's segment of each cell.
  std::array<std::vector<std::vector<double>>, hpc::kNumEvents> cells;

  std::array<bool, hpc::kNumEvents> active{};
  std::array<std::size_t, hpc::kNumEvents> consecutive_missing{};

  /// Shard-local diagnostic deltas (merged with the base at barriers).
  CampaignDiagnostics diag;
  /// failed_measurements inherited from the resumed state, so the
  /// per-shard abort threshold is cumulative like the serial one.
  std::size_t base_failed = 0;

  bool warmed = false;
  std::exception_ptr error;

  std::size_t remaining() const {
    std::size_t n = 0;
    for (std::size_t c : cursor) n += hi - c;
    return n;
  }
  std::size_t active_count() const {
    return static_cast<std::size_t>(
        std::count(active.begin(), active.end(), true));
  }
};

/// Execution context shared by every chunk of one run: the schedule and
/// the run's cancel token (a child of the config token, deadline armed).
struct ChunkContext {
  const CampaignConfig& cfg;
  const InputPools& pools;
  util::CancelToken token;
};

/// Measure work-state `work`'s staged input on `rig`'s instrument.  The
/// two are the same shard in the healthy case and differ under failover.
/// On a pure rig measuring its own plan, an input seen before is recalled:
/// its stored workload counts get the overlay read() would draw for `key`.
hpc::CounterSample raw_measure(ShardState& work, ShardState& rig,
                               const ChunkContext& ctx, std::size_t c,
                               std::size_t s, std::uint64_t key) {
  const auto& pool = ctx.pools[c];
  const data::Example& example = *pool[s % pool.size()];
  const hpc::SimulatedPmu* pure = &work == &rig ? rig.pure_pmu : nullptr;
  if (pure) {
    const auto hit = work.recall.find(&example);
    if (hit != work.recall.end()) return pure->read_keyed(hit->second, key);
  }
  nn::image_to_tensor_into(example.image, work.staged);
  hpc::CounterProvider& provider = rig.instrument.provider();
  (void)provider.set_measurement_key(key);
  provider.start();
  try {
    // The evaluator observes the classification of the user's input.
    (void)work.plan->run(work.staged, rig.instrument.sink(),
                         ctx.cfg.kernel_mode);
  } catch (...) {
    // Never leave counters running; keep the workload's exception.
    try {
      provider.stop();
    } catch (...) {
    }
    throw;
  }
  provider.stop();
  if (pure) work.recall.emplace(&example, pure->workload_counts());
  return provider.read();
}

/// Consecutive samples an expected event may be missing from before it is
/// declared permanently lost and dropped from the campaign.  Streaks are
/// tracked per shard; a drop in any shard drops the event globally.
constexpr std::size_t kEventDropAfter = 8;

void drop_event(ShardState& sh, hpc::HpcEvent e) {
  const std::size_t idx = static_cast<std::size_t>(e);
  sh.active[idx] = false;
  sh.diag.dropped_events.push_back(e);
  std::size_t discarded = 0;
  for (auto& cell : sh.cells[idx]) {
    discarded += cell.size();
    cell.clear();
  }
  util::log_warn("campaign: shard ", sh.index, ": event ", hpc::to_string(e),
                 " permanently unavailable after ",
                 sh.diag.missing_event_counts[idx],
                 " missing samples; dropping its cells (", discarded,
                 " collected values discarded)");
}

/// Next slot under the configured schedule; nullopt when the shard's
/// ranges are full.  Interleaved mode picks the category this shard has
/// filled least (lowest index on ties), which reproduces the classic
/// round-robin order and resumes correctly from any uneven state.
std::optional<std::size_t> next_category(const ShardState& sh,
                                         const CampaignConfig& cfg) {
  std::optional<std::size_t> best;
  for (std::size_t c = 0; c < sh.cursor.size(); ++c) {
    if (sh.cursor[c] >= sh.hi) continue;
    if (cfg.interleave_categories) {
      if (!best || sh.cursor[c] - sh.lo < sh.cursor[*best] - sh.lo) best = c;
    } else {
      return c;
    }
  }
  return best;
}

/// One measurement slot: acquire until a valid sample lands in cell
/// (c, cursor[c]) or the retry budget dies.  Returns true if recorded.
/// Checks the run token once per attempt, so a cancel lands within one
/// measurement.
bool acquire_slot(ShardState& work, ShardState& rig, const ChunkContext& ctx,
                  std::size_t c) {
  const CampaignConfig& cfg = ctx.cfg;
  const std::size_t s = work.cursor[c];
  const std::uint64_t slot =
      acquisition::global_slot(cfg.interleave_categories, ctx.pools.size(),
                               cfg.samples_per_category, c, s);
  std::size_t transient_attempts = 0;
  std::size_t invalid_attempts = 0;
  std::size_t attempt = work.slot_attempts[c];
  for (;;) {
    ctx.token.check();
    hpc::CounterSample sample;
    ++work.diag.measurements_attempted;
    try {
      sample = raw_measure(work, rig, ctx, c, s, slot_key(slot, attempt++));
    } catch (const TransientFailure& e) {
      ++work.diag.transient_faults;
      ++transient_attempts;
      util::log_debug("campaign: transient fault (attempt ",
                      transient_attempts, "): ", e.what());
      if (transient_attempts >= cfg.retry.max_attempts) {
        work.slot_attempts[c] = attempt;
        return false;
      }
      util::backoff_sleep(cfg.retry.backoff_for(transient_attempts));
      continue;
    }

    // Validate against the expected (active) event set.
    bool invalid = false;
    for (hpc::HpcEvent e : hpc::all_events()) {
      const std::size_t idx = static_cast<std::size_t>(e);
      if (!work.active[idx]) continue;
      if (sample.has(e)) {
        work.consecutive_missing[idx] = 0;
        continue;
      }
      invalid = true;
      ++work.diag.missing_event_counts[idx];
      ++work.consecutive_missing[idx];
    }
    if (invalid) {
      ++work.diag.incomplete_samples;
      for (hpc::HpcEvent e : hpc::all_events()) {
        const std::size_t idx = static_cast<std::size_t>(e);
        if (work.active[idx] &&
            work.consecutive_missing[idx] >= kEventDropAfter)
          drop_event(work, e);
      }
      if (work.active_count() == 0)
        throw Error("campaign: every monitored event became unavailable");
      // The sample may now be complete w.r.t. the reduced event set —
      // re-check before spending another measurement.
      invalid = false;
      for (hpc::HpcEvent e : hpc::all_events()) {
        const std::size_t idx = static_cast<std::size_t>(e);
        if (work.active[idx] && !sample.has(e)) invalid = true;
      }
      if (invalid) {
        ++invalid_attempts;
        if (invalid_attempts >= cfg.retry.max_attempts) {
          work.slot_attempts[c] = attempt;
          return false;
        }
        continue;
      }
    }

    for (hpc::HpcEvent e : hpc::all_events()) {
      const std::size_t idx = static_cast<std::size_t>(e);
      if (work.active[idx])
        work.cells[idx][c].push_back(static_cast<double>(sample[e]));
    }
    ++work.cursor[c];
    ++work.diag.measurements_recorded;
    work.slot_attempts[c] = 0;
    if (&work != &rig) ++work.diag.failed_over_measurements;
    rig.consecutive_exhausted = 0;
    return true;
  }
}

/// Record `quota` measurements from `work`'s ranges on `rig`'s
/// instrument (failures retry the same slot and do not consume quota;
/// the cumulative failure cap aborts a hopeless provider).  Runs on a
/// worker thread; touches only `work` and `rig`, which the coordinator
/// guarantees are owned by the same lane during the chunk.
void run_shard_chunk(ShardState& work, ShardState& rig,
                     const ChunkContext& ctx, std::size_t quota) {
  const CampaignConfig& cfg = ctx.cfg;
  if (!rig.warmed) {
    // Warm-up: bring this rig's plan buffers and instrument (heap
    // layout, lazy initialization, cache frames) to a steady state before
    // its recorded acquisition starts.  Faults here are irrelevant — the
    // measurements are discarded anyway.  Warming is a rig property: an
    // adopting rig already warmed for its own shard does not re-warm.
    for (std::size_t w = 0; w < cfg.warmup_measurements; ++w) {
      ctx.token.check();
      try {
        (void)raw_measure(rig, rig, ctx, w % ctx.pools.size(), 0,
                          warmup_key(rig.index, w));
      } catch (const TransientFailure&) {
      }
    }
    rig.warmed = true;
  }
  while (quota > 0) {
    const std::optional<std::size_t> c = next_category(work, cfg);
    if (!c) break;  // defensive: the coordinator never over-assigns
    if (acquire_slot(work, rig, ctx, *c)) {
      --quota;
    } else {
      ++work.diag.failed_measurements;
      ++rig.consecutive_exhausted;
      if (cfg.instrument_lost_after > 0 &&
          rig.consecutive_exhausted >= cfg.instrument_lost_after)
        throw InstrumentLost(
            "campaign: shard " + std::to_string(rig.index) + " instrument (" +
            rig.instrument.provider().name() + ") exhausted " +
            std::to_string(rig.consecutive_exhausted) +
            " consecutive slots; declaring it lost");
      if (work.base_failed + work.diag.failed_measurements >=
          cfg.max_failed_measurements)
        throw Error("campaign: " +
                    std::to_string(work.base_failed +
                                   work.diag.failed_measurements) +
                    " measurement slots exhausted their retry budget; "
                    "giving up on this provider");
    }
  }
}

std::vector<hpc::HpcEvent> sorted_events(std::vector<hpc::HpcEvent> events) {
  std::sort(events.begin(), events.end());
  return events;
}

}  // namespace

Campaign::Campaign(const nn::Sequential& model, const data::Dataset& dataset,
                   hpc::InstrumentFactory& instruments)
    : model_(model), dataset_(dataset), instruments_(instruments) {}

Campaign::~Campaign() = default;

Campaign& Campaign::with_config(CampaignConfig config) {
  config_ = std::move(config);
  return *this;
}

Campaign& Campaign::on_progress(ProgressCallback callback, std::size_t every) {
  progress_ = std::move(callback);
  progress_every_ = every;
  return *this;
}

CampaignResult Campaign::run() {
  config_.validate();
  acquisition::CategoryPools in = acquisition::category_pools(
      dataset_, config_.categories, config_.samples_per_category,
      config_.allow_image_reuse, "campaign");
  CampaignResult result;
  result.categories = config_.categories;
  result.category_names = std::move(in.names);
  for (auto& per_event : result.samples)
    per_event.assign(config_.categories.size(), {});
  return run_internal(config_, in.pools, std::move(result));
}

CampaignResult Campaign::resume(const CampaignCheckpoint& checkpoint) {
  if (checkpoint.samples_per_category != config_.samples_per_category)
    throw InvalidArgument(
        "campaign: samples_per_category does not match checkpoint");
  if (checkpoint.interleave_categories != config_.interleave_categories)
    throw InvalidArgument(
        "campaign: schedule (interleaving) does not match checkpoint");
  if (checkpoint.kernel_mode != nn::to_string(config_.kernel_mode))
    throw InvalidArgument("campaign: kernel mode does not match checkpoint");
  util::log_info("campaign: resuming from checkpoint with ",
                 checkpoint.partial.diagnostics.measurements_recorded,
                 " recorded measurements");
  config_.validate();
  CampaignResult partial = checkpoint.partial;
  if (partial.categories != config_.categories)
    throw InvalidArgument(
        "campaign: resume state categories do not match config");
  for (const auto& per_event : partial.samples)
    if (per_event.size() != config_.categories.size())
      throw InvalidArgument("campaign: resume state has wrong category count");
  partial.diagnostics.resumed = true;
  partial.diagnostics.complete = false;
  const acquisition::CategoryPools in = acquisition::category_pools(
      dataset_, config_.categories, config_.samples_per_category,
      config_.allow_image_reuse, "campaign");
  return run_internal(config_, in.pools, std::move(partial));
}

CampaignResult Campaign::run_internal(const CampaignConfig& cfg,
                                      const InputPools& pools,
                                      CampaignResult result) const {
  const std::size_t ncat = pools.size();
  const std::size_t per_cat = cfg.samples_per_category;
  const std::size_t nshards = cfg.num_shards;

  CampaignDiagnostics base = std::move(result.diagnostics);
  result.diagnostics = CampaignDiagnostics{};

  // --- Mint one instrument per shard and agree on the event set. -------
  std::vector<std::unique_ptr<ShardState>> shards;
  shards.reserve(nshards);
  for (std::size_t k = 0; k < nshards; ++k) {
    shards.push_back(
        std::make_unique<ShardState>(instruments_.create(k, nshards)));
    shards.back()->index = k;
    const hpc::Instrument& ins = shards.back()->instrument;
    const auto* pmu = dynamic_cast<const hpc::SimulatedPmu*>(&ins.provider());
    if (pmu && &ins.sink() == pmu && pmu->config().workload_counts_are_pure())
      shards.back()->pure_pmu = pmu;
  }
  const std::vector<hpc::HpcEvent> supported =
      sorted_events(shards.front()->instrument.provider().supported_events());
  for (const auto& sh : shards)
    if (sorted_events(sh->instrument.provider().supported_events()) !=
        supported)
      throw InvalidArgument(
          "campaign: instrument factory minted shards with different "
          "supported event sets");

  // Events this campaign acquires: what the provider offers, minus
  // anything a previous (checkpointed) run already declared lost.
  std::array<bool, hpc::kNumEvents> active{};
  for (hpc::HpcEvent e : supported) active[static_cast<std::size_t>(e)] = true;
  base.unsupported_events.clear();
  for (hpc::HpcEvent e : hpc::all_events())
    if (!active[static_cast<std::size_t>(e)])
      base.unsupported_events.push_back(e);
  std::vector<hpc::HpcEvent> dropped = base.dropped_events;
  for (hpc::HpcEvent e : dropped) active[static_cast<std::size_t>(e)] = false;
  const auto active_count = [&active] {
    return static_cast<std::size_t>(
        std::count(active.begin(), active.end(), true));
  };
  if (active_count() == 0)
    throw Error("campaign: provider offers no usable events");

  // --- Resume cursor: how many measurements each category cell holds.
  // Active events record atomically, so any active event's cell size is
  // the category's count; verify they agree (corrupt resume state would
  // silently skew distributions otherwise).
  std::vector<std::size_t> merged_count(ncat, 0);
  for (std::size_t c = 0; c < ncat; ++c) {
    std::optional<std::size_t> count;
    for (hpc::HpcEvent e : hpc::all_events()) {
      if (!active[static_cast<std::size_t>(e)]) continue;
      const std::size_t n =
          result.samples[static_cast<std::size_t>(e)][c].size();
      if (!count) count = n;
      if (*count != n)
        throw InvalidArgument(
            "campaign: inconsistent resume state (cell sizes differ)");
    }
    merged_count[c] = count.value_or(0);
    if (merged_count[c] > per_cat)
      throw InvalidArgument(
          "campaign: resume state holds more samples than requested");
  }

  // --- Partition the sample budget and split resumed cells. ------------
  // Shard k owns the contiguous absolute index range [lo_k, hi_k) of
  // every category; concatenating the shards' segments in shard order
  // therefore reproduces ascending sample-index (= serial) order.
  const std::size_t div = per_cat / nshards;
  const std::size_t rem = per_cat % nshards;
  for (std::size_t k = 0; k < nshards; ++k) {
    ShardState& sh = *shards[k];
    sh.lo = k * div + std::min(k, rem);
    sh.hi = sh.lo + div + (k < rem ? 1 : 0);
  }

  // A serial (one-row or absent) shard matrix means the merged cells are
  // plain prefixes and can be re-split for any shard count; a sharded
  // matrix encodes the concatenation segments and requires the same
  // num_shards.
  std::vector<std::vector<std::size_t>> init(
      nshards, std::vector<std::size_t>(ncat, 0));
  if (base.shard_recorded.size() <= 1) {
    for (std::size_t k = 0; k < nshards; ++k)
      for (std::size_t c = 0; c < ncat; ++c) {
        const std::size_t lo = shards[k]->lo;
        const std::size_t hi = shards[k]->hi;
        const std::size_t upto = std::min(merged_count[c], hi);
        init[k][c] = upto > lo ? upto - lo : 0;
      }
  } else if (base.shard_recorded.size() == nshards) {
    init = base.shard_recorded;
    for (const auto& row : init)
      if (row.size() != ncat)
        throw InvalidArgument(
            "campaign: resume state shard matrix has wrong category count");
    for (std::size_t c = 0; c < ncat; ++c) {
      std::size_t sum = 0;
      for (std::size_t k = 0; k < nshards; ++k) {
        if (init[k][c] > shards[k]->hi - shards[k]->lo)
          throw InvalidArgument(
              "campaign: resume state shard matrix exceeds shard range");
        sum += init[k][c];
      }
      if (sum != merged_count[c])
        throw InvalidArgument(
            "campaign: resume state shard matrix inconsistent with cells");
    }
  } else {
    throw InvalidArgument(
        "campaign: resume state was acquired with " +
        std::to_string(base.shard_recorded.size()) +
        " shards; set num_shards to match (serial checkpoints resume at "
        "any shard count)");
  }

  for (std::size_t k = 0; k < nshards; ++k) {
    ShardState& sh = *shards[k];
    sh.active = active;
    sh.cursor.assign(ncat, 0);
    sh.slot_attempts.assign(ncat, 0);
    for (auto& per_event : sh.cells) per_event.assign(ncat, {});
    for (std::size_t c = 0; c < ncat; ++c) sh.cursor[c] = sh.lo + init[k][c];
    sh.base_failed = base.failed_measurements;
  }
  for (hpc::HpcEvent e : hpc::all_events()) {
    const std::size_t idx = static_cast<std::size_t>(e);
    if (!active[idx]) continue;
    for (std::size_t c = 0; c < ncat; ++c) {
      const auto& merged_cell = result.samples[idx][c];
      std::size_t offset = 0;
      for (std::size_t k = 0; k < nshards; ++k) {
        auto& cell = shards[k]->cells[idx][c];
        cell.assign(merged_cell.begin() + static_cast<std::ptrdiff_t>(offset),
                    merged_cell.begin() +
                        static_cast<std::ptrdiff_t>(offset + init[k][c]));
        offset += init[k][c];
      }
    }
  }

  // --- Per-shard inference plans and staging tensors. ------------------
  // Built serially on the coordinating thread (plan construction runs a
  // warmup pass; keeping it here means workers only ever touch their own
  // preallocated state).
  for (auto& sh : shards) {
    nn::image_to_tensor_into(pools.front().front()->image, sh->staged);
    sh->plan = std::make_unique<nn::InferencePlan>(model_, sh->staged.shape());
  }

  // --- Chunked coordinator loop. ---------------------------------------
  const std::size_t threads =
      cfg.num_threads == 0 ? nshards : std::min(cfg.num_threads, nshards);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

  util::CancelToken token = acquisition::run_token(cfg.cancel, cfg.deadline);

  // Failover bookkeeping: rig_of[k] names the shard whose *instrument*
  // executes shard k's work.  Identity while everything is healthy; when
  // a rig is declared lost its work states are re-homed round-robin over
  // the healthy rigs (deterministically, in ascending state order).
  std::vector<std::size_t> rig_of(nshards);
  for (std::size_t k = 0; k < nshards; ++k) rig_of[k] = k;
  std::vector<std::size_t> lost_rigs = base.lost_instrument_shards;

  const std::size_t base_recorded = base.measurements_recorded;
  const std::size_t target_total = ncat * per_cat;
  std::size_t checkpoints_total = base.checkpoints_written;
  std::size_t recorded_this_run = 0;
  StopReason stop_reason = StopReason::kCompleted;

  auto total_remaining = [&] {
    std::size_t n = 0;
    for (const auto& sh : shards) n += sh->remaining();
    return n;
  };

  // Merge snapshot: shard segments concatenated in shard order, shard
  // diagnostic deltas added onto the resumed base.
  auto merge = [&]() -> CampaignResult {
    CampaignResult merged;
    merged.categories = result.categories;
    merged.category_names = result.category_names;
    for (hpc::HpcEvent e : hpc::all_events()) {
      const std::size_t idx = static_cast<std::size_t>(e);
      auto& per_event = merged.samples[idx];
      per_event.assign(ncat, {});
      const bool is_dropped =
          std::find(dropped.begin(), dropped.end(), e) != dropped.end();
      if (is_dropped) continue;  // cells stay cleared
      if (!active[idx]) {
        per_event = result.samples[idx];  // unsupported: carried untouched
        continue;
      }
      for (std::size_t c = 0; c < ncat; ++c) {
        std::size_t n = 0;
        for (const auto& sh : shards) n += sh->cells[idx][c].size();
        per_event[c].reserve(n);
        for (const auto& sh : shards)
          per_event[c].insert(per_event[c].end(), sh->cells[idx][c].begin(),
                              sh->cells[idx][c].end());
      }
    }
    CampaignDiagnostics d = base;
    for (const auto& sh : shards) {
      d.measurements_attempted += sh->diag.measurements_attempted;
      d.measurements_recorded += sh->diag.measurements_recorded;
      d.transient_faults += sh->diag.transient_faults;
      d.failed_measurements += sh->diag.failed_measurements;
      d.incomplete_samples += sh->diag.incomplete_samples;
      d.failed_over_measurements += sh->diag.failed_over_measurements;
      for (std::size_t i = 0; i < hpc::kNumEvents; ++i)
        d.missing_event_counts[i] += sh->diag.missing_event_counts[i];
    }
    d.dropped_events = dropped;
    d.complete = total_remaining() == 0;
    d.checkpoints_written = checkpoints_total;
    d.stop_reason = d.complete ? StopReason::kCompleted : stop_reason;
    d.lost_instrument_shards = lost_rigs;
    std::sort(d.lost_instrument_shards.begin(),
              d.lost_instrument_shards.end());
    d.lost_instrument_shards.erase(
        std::unique(d.lost_instrument_shards.begin(),
                    d.lost_instrument_shards.end()),
        d.lost_instrument_shards.end());
    d.shard_recorded.assign(nshards, std::vector<std::size_t>(ncat, 0));
    for (std::size_t k = 0; k < nshards; ++k)
      for (std::size_t c = 0; c < ncat; ++c)
        d.shard_recorded[k][c] = shards[k]->cursor[c] - shards[k]->lo;
    merged.diagnostics = std::move(d);
    return merged;
  };

  auto emit_progress = [&] {
    if (!progress_) return;
    CampaignProgress p;
    p.measurements_recorded = base_recorded + recorded_this_run;
    p.measurements_target = target_total;
    p.shards = nshards;
    p.checkpoints_written = checkpoints_total;
    progress_(p);
  };

  const std::size_t progress_chunk =
      progress_ ? (progress_every_ > 0
                       ? progress_every_
                       : std::max<std::size_t>(1, target_total / 16))
                : 0;

  // Flush a checkpoint unconditionally — the supervision contract: a
  // cancelled or deadline'd run leaves a resumable file behind
  // whenever a checkpoint path is configured (even with periodic
  // checkpointing off).
  auto flush_checkpoint = [&] {
    if (cfg.checkpoint_path.empty()) return;
    ++checkpoints_total;
    save_checkpoint(cfg.checkpoint_path, make_checkpoint(merge(), cfg));
  };

  // Declare rig `dead` lost and re-home every work state it was
  // executing.  Returns false when no healthy rig remains.
  auto declare_lost = [&](std::size_t dead) -> bool {
    shards[dead]->instrument_lost = true;
    if (std::find(lost_rigs.begin(), lost_rigs.end(), dead) ==
        lost_rigs.end())
      lost_rigs.push_back(dead);
    std::vector<std::size_t> healthy;
    for (std::size_t k = 0; k < nshards; ++k)
      if (!shards[k]->instrument_lost) healthy.push_back(k);
    if (healthy.empty()) return false;
    std::size_t next = 0;
    for (std::size_t k = 0; k < nshards; ++k) {
      if (!shards[rig_of[k]]->instrument_lost) continue;
      rig_of[k] = healthy[next++ % healthy.size()];
      // Fresh attempt ordinals on the adopting rig: the dead
      // instrument's burnt attempts must not shift this slot's
      // measurement keys, or the adopted values would diverge from a
      // fault-free run's.
      std::fill(shards[k]->slot_attempts.begin(),
                shards[k]->slot_attempts.end(), 0);
    }
    util::log_warn("campaign: shard ", dead,
                   " instrument lost; re-homing its work onto ",
                   healthy.size(), " healthy shard(s)");
    return true;
  };

  // next_checkpoint_at tracks the cadence as a running multiple rather
  // than an exact modulo: a chunk cut short by a cancel or a failover
  // must not silently skip the boundary it was aimed at.
  std::size_t next_checkpoint_at =
      cfg.checkpoint_every > 0
          ? (base_recorded / cfg.checkpoint_every + 1) * cfg.checkpoint_every
          : std::numeric_limits<std::size_t>::max();

  for (;;) {
    const std::size_t remaining = total_remaining();
    if (remaining == 0) break;
    if (token.cancelled()) break;  // classified after the loop

    std::size_t chunk = remaining;
    {
      const std::size_t done = base_recorded + recorded_this_run;
      if (next_checkpoint_at != std::numeric_limits<std::size_t>::max())
        chunk = std::min(chunk, next_checkpoint_at - done);
    }
    if (progress_chunk > 0) chunk = std::min(chunk, progress_chunk);

    // Deterministic quota distribution: hand out one measurement at a
    // time round-robin to shards with budget left.  The allocation (and
    // therefore the merged result) depends only on cursor state, never on
    // worker timing.
    std::vector<std::size_t> quotas(nshards, 0);
    {
      std::size_t left = chunk;
      while (left > 0) {
        bool assigned = false;
        for (std::size_t k = 0; k < nshards && left > 0; ++k) {
          if (quotas[k] < shards[k]->remaining()) {
            ++quotas[k];
            --left;
            assigned = true;
          }
        }
        if (!assigned) break;
      }
      chunk -= left;  // unassignable leftovers (cannot happen in practice)
    }

    // Group work states by executing rig: one lane per healthy rig, each
    // running its states sequentially in ascending state order so the
    // rig's read-count trajectory is reproducible.
    std::vector<std::vector<std::size_t>> lane_states(nshards);
    for (std::size_t k = 0; k < nshards; ++k)
      if (quotas[k] > 0) lane_states[rig_of[k]].push_back(k);

    ChunkContext ctx{cfg, pools, token};
    auto run_lane = [&ctx, &shards, &quotas](
                        ShardState* rig, const std::vector<std::size_t>& st) {
      for (std::size_t k : st)
        run_shard_chunk(*shards[k], *rig, ctx, quotas[k]);
    };

    if (pool) {
      for (std::size_t r = 0; r < nshards; ++r) {
        if (lane_states[r].empty()) continue;
        ShardState* rig = shards[r].get();
        const std::vector<std::size_t>& st = lane_states[r];
        pool->submit(token, [&run_lane, rig, &st] {
          try {
            run_lane(rig, st);
          } catch (...) {
            rig->error = std::current_exception();
          }
        });
      }
      pool->wait();
    } else {
      for (std::size_t r = 0; r < nshards; ++r) {
        if (lane_states[r].empty()) continue;
        try {
          run_lane(shards[r].get(), lane_states[r]);
        } catch (...) {
          shards[r]->error = std::current_exception();
          break;
        }
      }
    }

    // Barrier-time error triage, in deterministic (lane-index) order:
    // real defects rethrow (lowest lane wins), InstrumentLost marks the
    // rig dead and re-homes its work, Interrupted subtypes fall through
    // to the token classification below.
    std::vector<std::size_t> dead_lanes;
    for (std::size_t r = 0; r < nshards; ++r) {
      if (!shards[r]->error) continue;
      std::exception_ptr err = shards[r]->error;
      shards[r]->error = nullptr;
      try {
        std::rethrow_exception(err);
      } catch (const Interrupted&) {
        // Cooperative unwind from token.check(); the token holds the
        // reason and is classified once, below.
      } catch (const InstrumentLost&) {
        dead_lanes.push_back(r);
      }
      // Anything else escapes run_internal via this rethrow.
    }
    for (std::size_t r : dead_lanes)
      if (!declare_lost(r)) {
        flush_checkpoint();
        throw InstrumentLost(
            "campaign: every shard instrument was lost; wrote checkpoint "
            "with " +
            std::to_string(base_recorded + recorded_this_run) +
            " measurements recorded");
      }

    // Propagate event drops across shards: an event one shard lost is
    // excluded campaign-wide (its cells are cleared at merge time).
    for (const auto& sh : shards)
      for (hpc::HpcEvent e : sh->diag.dropped_events)
        if (std::find(dropped.begin(), dropped.end(), e) == dropped.end())
          dropped.push_back(e);
    for (auto& sh : shards)
      for (hpc::HpcEvent e : dropped) {
        const std::size_t idx = static_cast<std::size_t>(e);
        if (!sh->active[idx]) continue;
        sh->active[idx] = false;
        for (auto& cell : sh->cells[idx]) cell.clear();
      }
    for (hpc::HpcEvent e : dropped) active[static_cast<std::size_t>(e)] = false;
    if (active_count() == 0)
      throw Error("campaign: every monitored event became unavailable");

    std::size_t failed_total = base.failed_measurements;
    for (const auto& sh : shards)
      failed_total += sh->diag.failed_measurements;
    if (failed_total >= cfg.max_failed_measurements)
      throw Error("campaign: " + std::to_string(failed_total) +
                  " measurement slots exhausted their retry budget; "
                  "giving up on this provider");

    // Recomputed, not accumulated: a chunk interrupted by a cancel or a
    // dying instrument records fewer measurements than its quota.
    recorded_this_run = 0;
    for (const auto& sh : shards)
      recorded_this_run += sh->diag.measurements_recorded;

    const std::size_t done = base_recorded + recorded_this_run;
    if (cfg.checkpoint_every > 0 && done >= next_checkpoint_at) {
      ++checkpoints_total;
      save_checkpoint(cfg.checkpoint_path, make_checkpoint(merge(), cfg));
      next_checkpoint_at =
          (done / cfg.checkpoint_every + 1) * cfg.checkpoint_every;
    }
    emit_progress();
  }

  // Supervision stop: classify the token once, flush a resumable
  // checkpoint, and return Partial instead of throwing — interruption is
  // policy, not failure.
  if (total_remaining() > 0 && token.cancelled()) {
    stop_reason = acquisition::stop_reason_of(token);
    util::log_info("campaign: stopping (", to_string(stop_reason),
                   "): ", token.message());
    flush_checkpoint();
  }

  emit_progress();
  CampaignResult final_result = merge();
  const CampaignDiagnostics& d = final_result.diagnostics;
  if (!d.dropped_events.empty() || !d.unsupported_events.empty() ||
      d.failed_measurements > 0 || !d.complete)
    util::log_info("campaign: degraded acquisition — ", d.summary());
  return final_result;
}

}  // namespace sce::core
