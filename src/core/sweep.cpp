#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/acquisition.hpp"
#include "core/acquisition_keys.hpp"
#include "core/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/plan.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sce::core {

void SweepConfig::validate() const {
  if (categories.empty())
    throw ValidationError("sweep", "categories", "must not be empty");
  if (samples_per_category == 0)
    throw ValidationError("sweep", "samples_per_category", "must be > 0");
  if (grid.empty()) throw ValidationError("sweep", "grid", "must not be empty");
  if (deadline < std::chrono::milliseconds::zero())
    throw ValidationError("sweep", "deadline", "must be >= 0");
  if (checkpoint_every_slots > 0 && checkpoint_path.empty())
    throw ValidationError("sweep", "checkpoint_path",
                          "required when checkpoint_every_slots is set");
  std::unordered_set<std::string> labels;
  for (const SweepPoint& p : grid) {
    if (p.label.empty())
      throw ValidationError("sweep", "grid", "contains an unlabeled point");
    if (!labels.insert(p.label).second)
      throw ValidationError("sweep", "grid",
                            "contains duplicate label '" + p.label + "'");
  }
}

const CampaignResult& SweepResult::of(const std::string& label) const {
  for (const SweepPointResult& p : points)
    if (p.label == label) return p.result;
  throw InvalidArgument("sweep: no grid point labeled '" + label + "'");
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Memory-side component counts of one replayed measurement.
struct MemPart {
  std::uint64_t memory_cycles = 0;
  std::uint64_t llc_references = 0;
  std::uint64_t llc_misses = 0;
};

/// Branch-side component counts of one replayed measurement.
struct BrPart {
  std::uint64_t mispredicts = 0;
};

/// One deduplicated memory-side class: every grid point whose
/// {hierarchy, cold, pollution_period, noise_seed} agree shares this
/// replay target.  noise_seed is part of the key because it seeds the
/// keyed pollution stream.
struct MemClass {
  uarch::HierarchyConfig hierarchy;
  bool cold = true;
  std::size_t pollution_period = 0;
  std::uint64_t noise_seed = 0;

  std::unique_ptr<hpc::SimulatedPmu> pmu;
  /// Counts are a pure function of the input
  /// (SimulatedPmuConfig::workload_counts_are_pure on the class's PMU).
  bool cacheable = false;
  std::unordered_map<std::uint64_t, MemPart> cache;
  MemPart out;

  bool matches(const hpc::SimulatedPmuConfig& c) const {
    return hierarchy == c.hierarchy &&
           cold == c.cold_start_per_measurement &&
           pollution_period == c.pollution_period &&
           (pollution_period == 0 || noise_seed == c.noise_seed);
  }
};

/// One deduplicated branch-side class: grid points sharing
/// {predictor, cold} share this replay target (every predictor model is
/// deterministic, so no seed enters the key).
struct BrClass {
  uarch::PredictorKind predictor = uarch::PredictorKind::kGShare;
  bool cold = true;

  std::unique_ptr<hpc::SimulatedPmu> pmu;
  bool cacheable = false;
  std::unordered_map<std::uint64_t, BrPart> cache;
  BrPart out;

  bool matches(const hpc::SimulatedPmuConfig& c) const {
    return predictor == c.predictor && cold == c.cold_start_per_measurement;
  }
};

void replay_mem(MemClass& mc, const uarch::TraceBuffer& trace,
                std::uint64_t key) {
  hpc::SimulatedPmu& pmu = *mc.pmu;
  (void)pmu.set_measurement_key(key);
  pmu.start();
  pmu.consume(trace, uarch::ReplayClass::kMemory);
  pmu.stop();
  mc.out = {pmu.memory_cycles(), pmu.hierarchy().last_level_references(),
            pmu.hierarchy().last_level_misses()};
}

void replay_br(BrClass& bc, const uarch::TraceBuffer& trace,
               std::uint64_t key) {
  hpc::SimulatedPmu& pmu = *bc.pmu;
  (void)pmu.set_measurement_key(key);
  pmu.start();
  pmu.consume(trace, uarch::ReplayClass::kControlFlow);
  pmu.stop();
  bc.out = {pmu.predictor().stats().mispredicts};
}

/// Samples category `c` holds after `done` slots of the schedule.
std::size_t cat_count(bool interleave, std::size_t ncat, std::size_t per_cat,
                      std::size_t done, std::size_t c) {
  if (interleave)
    return done / ncat + (c < done % ncat ? 1 : 0);
  const std::size_t start = c * per_cat;
  if (done <= start) return 0;
  return std::min(done - start, per_cat);
}

}  // namespace

SweepResult Campaign::sweep(const SweepConfig& cfg) {
  return sweep_internal(cfg, nullptr);
}

SweepResult Campaign::resume_sweep(const SweepConfig& cfg,
                                   const SweepCheckpoint& checkpoint) {
  return sweep_internal(cfg, &checkpoint);
}

SweepResult Campaign::sweep_internal(const SweepConfig& cfg,
                                     const SweepCheckpoint* resume) {
  cfg.validate();
  const std::size_t ncat = cfg.categories.size();
  const std::size_t per_cat = cfg.samples_per_category;

  // --- Input pools, exactly as the live campaign builds them. ----------
  const acquisition::CategoryPools inputs = acquisition::category_pools(
      dataset_, cfg.categories, per_cat, cfg.allow_image_reuse, "sweep");
  const acquisition::InputPools& pools = inputs.pools;

  // --- Deduplicate the grid into component classes. --------------------
  std::vector<MemClass> mem_classes;
  std::vector<BrClass> br_classes;
  std::vector<std::size_t> mem_of(cfg.grid.size());
  std::vector<std::size_t> br_of(cfg.grid.size());
  for (std::size_t g = 0; g < cfg.grid.size(); ++g) {
    const hpc::SimulatedPmuConfig& p = cfg.grid[g].pmu;
    auto mit = std::find_if(mem_classes.begin(), mem_classes.end(),
                            [&](const MemClass& m) { return m.matches(p); });
    if (mit == mem_classes.end()) {
      MemClass mc;
      mc.hierarchy = p.hierarchy;
      mc.cold = p.cold_start_per_measurement;
      mc.pollution_period = p.pollution_period;
      mc.noise_seed = p.noise_seed;
      hpc::SimulatedPmuConfig pc;
      pc.hierarchy = mc.hierarchy;
      // The memory replay never emits a conditional branch, so the
      // predictor choice is irrelevant; static-taken is the cheapest.
      pc.predictor = uarch::PredictorKind::kStaticTaken;
      pc.cold_start_per_measurement = mc.cold;
      pc.pollution_period = mc.pollution_period;
      pc.environment = hpc::SimulatedPmuConfig::no_environment();
      pc.noise_seed = mc.noise_seed;
      mc.cacheable = pc.workload_counts_are_pure();
      mc.pmu = std::make_unique<hpc::SimulatedPmu>(pc);
      mem_classes.push_back(std::move(mc));
      mit = std::prev(mem_classes.end());
    }
    mem_of[g] = static_cast<std::size_t>(mit - mem_classes.begin());

    auto bit = std::find_if(br_classes.begin(), br_classes.end(),
                            [&](const BrClass& b) { return b.matches(p); });
    if (bit == br_classes.end()) {
      BrClass bc;
      bc.predictor = p.predictor;
      bc.cold = p.cold_start_per_measurement;
      hpc::SimulatedPmuConfig pc;
      pc.predictor = bc.predictor;
      pc.cold_start_per_measurement = bc.cold;
      pc.environment = hpc::SimulatedPmuConfig::no_environment();
      bc.cacheable = pc.workload_counts_are_pure();
      bc.pmu = std::make_unique<hpc::SimulatedPmu>(pc);
      br_classes.push_back(std::move(bc));
      bit = std::prev(br_classes.end());
    }
    br_of[g] = static_cast<std::size_t>(bit - br_classes.begin());
  }

  // --- Resume validation: the checkpoint must describe this exact
  // schedule, grid and dedup structure, or its per-point prefixes would
  // be silently misattributed.
  const std::size_t total_slots = ncat * per_cat;
  std::size_t done = 0;
  if (resume) {
    auto reject = [](const std::string& what) {
      throw InvalidArgument("sweep: checkpoint does not match config (" +
                            what + ")");
    };
    if (resume->samples_per_category != per_cat)
      reject("samples_per_category");
    if (resume->interleave_categories != cfg.interleave_categories)
      reject("interleave_categories");
    if (resume->warmup_measurements != cfg.warmup_measurements)
      reject("warmup_measurements");
    if (resume->verify_live != cfg.verify_live) reject("verify_live");
    if (resume->kernel_mode != nn::to_string(cfg.kernel_mode))
      reject("kernel_mode");
    if (resume->categories != cfg.categories) reject("categories");
    std::vector<std::string> labels;
    for (const SweepPoint& p : cfg.grid) labels.push_back(p.label);
    if (resume->grid_labels != labels) reject("grid labels");
    if (resume->mem_class_of != mem_of || resume->br_class_of != br_of)
      reject("component class structure");
    if (resume->slots_completed > total_slots) reject("slot cursor");
    if (resume->partial.points.size() != cfg.grid.size())
      reject("point count");
    done = resume->slots_completed;
    for (std::size_t g = 0; g < cfg.grid.size(); ++g)
      for (std::size_t c = 0; c < ncat; ++c) {
        const std::size_t expect = cat_count(cfg.interleave_categories, ncat,
                                             per_cat, done, c);
        for (hpc::HpcEvent e : hpc::all_events())
          if (resume->partial.points[g]
                  .result.samples[static_cast<std::size_t>(e)][c]
                  .size() != expect)
            reject("cell sizes vs slot cursor");
      }
    util::log_info("sweep: resuming from checkpoint at slot ", done, "/",
                   total_slots);
  }

  SweepStats stats;
  stats.grid_points = cfg.grid.size();
  stats.memory_classes = mem_classes.size();
  stats.branch_classes = br_classes.size();

  // --- The recording instrument: one plan, one relocatable buffer. -----
  // The staging tensor and plan live on the Campaign so repeated sweeps
  // keep one buffer layout (the simulated counters depend on within-page
  // offsets; see the class comment in campaign.hpp).
  nn::Tensor& staged = sweep_staged_;
  nn::image_to_tensor_into(pools.front().front()->image, staged);
  if (!sweep_plan_ || sweep_plan_->input_shape() != staged.shape())
    sweep_plan_ = std::make_unique<nn::InferencePlan>(model_, staged.shape());
  nn::InferencePlan& plan = *sweep_plan_;
  uarch::TraceBuffer trace;
  plan.register_regions(trace);

  // --- Live rerun rig (verify_live): one full PMU per grid point. ------
  std::vector<std::unique_ptr<hpc::SimulatedPmu>> live;
  if (cfg.verify_live)
    for (const SweepPoint& p : cfg.grid)
      live.push_back(std::make_unique<hpc::SimulatedPmu>(p.pmu));

  // Re-execute the staged input live into grid point `g`'s own PMU under
  // `key` — the classic rerun loop's unit of work, one network execution
  // per (slot, point).
  auto live_measure = [&](std::size_t g, std::uint64_t key) {
    const auto t0 = Clock::now();
    hpc::SimulatedPmu& pmu = *live[g];
    (void)pmu.set_measurement_key(key);
    pmu.start();
    (void)plan.run(staged, pmu.sink(), cfg.kernel_mode);
    pmu.stop();
    hpc::CounterSample s = pmu.read();
    stats.live_seconds += seconds_since(t0);
    ++stats.live_runs;
    return s;
  };

  auto record = [&](const data::Example& example) {
    const auto t0 = Clock::now();
    trace.clear();
    nn::image_to_tensor_into(example.image, staged);
    (void)plan.run(staged, trace, cfg.kernel_mode);
    ++stats.traces_recorded;
    stats.trace_events += trace.summary().events();
    stats.trace_bytes += trace.stats().encoded_bytes;
    stats.record_seconds += seconds_since(t0);
  };

  // --- Replay fan-out across classes, with a per-trace barrier. --------
  const std::size_t nclasses = mem_classes.size() + br_classes.size();
  const std::size_t threads =
      cfg.num_threads == 0 ? nclasses : std::min(cfg.num_threads, nclasses);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

  // Replay the trace into every class that has no cached counts for
  // `cache_key` (nullopt = never cache, e.g. warmups).  Each class's PMU
  // is touched by exactly one task, and the per-trace barrier means the
  // replay order within a slot cannot matter — results are bit-identical
  // at any thread count.
  //
  // `stateful_only` is the resume catch-up mode: replay solely into the
  // classes that carry cross-measurement state (warm hierarchies, random
  // replacement victim RNGs, pollution streams).  Cacheable classes are,
  // by the same definition that makes them cacheable, pure functions of
  // the input — skipping their history cannot change anything they
  // produce later.
  auto replay_all = [&](std::uint64_t key,
                        std::optional<std::uint64_t> cache_key,
                        bool stateful_only = false) {
    const auto t0 = Clock::now();
    std::vector<std::function<void()>> tasks;
    for (MemClass& mc : mem_classes) {
      if (stateful_only && mc.cacheable) continue;
      if (cache_key && mc.cacheable) {
        const auto hit = mc.cache.find(*cache_key);
        if (hit != mc.cache.end()) {
          mc.out = hit->second;
          ++stats.replay_cache_hits;
          continue;
        }
      }
      ++stats.replays;
      tasks.push_back([&mc, &trace, key] { replay_mem(mc, trace, key); });
    }
    for (BrClass& bc : br_classes) {
      if (stateful_only && bc.cacheable) continue;
      if (cache_key && bc.cacheable) {
        const auto hit = bc.cache.find(*cache_key);
        if (hit != bc.cache.end()) {
          bc.out = hit->second;
          ++stats.replay_cache_hits;
          continue;
        }
      }
      ++stats.replays;
      tasks.push_back([&bc, &trace, key] { replay_br(bc, trace, key); });
    }
    if (pool) {
      for (auto& t : tasks) pool->submit(std::move(t));
      pool->wait();
    } else {
      for (auto& t : tasks) t();
    }
    if (cache_key) {
      for (MemClass& mc : mem_classes)
        if (mc.cacheable) mc.cache.emplace(*cache_key, mc.out);
      for (BrClass& bc : br_classes)
        if (bc.cacheable) bc.cache.emplace(*cache_key, bc.out);
    }
    stats.replay_seconds += seconds_since(t0);
  };

  // --- Per-point result shells (prefilled with the checkpointed prefix
  // on resume). ---------------------------------------------------------
  SweepResult result;
  result.points.resize(cfg.grid.size());
  for (std::size_t g = 0; g < cfg.grid.size(); ++g) {
    SweepPointResult& pr = result.points[g];
    pr.label = cfg.grid[g].label;
    pr.result.categories = cfg.categories;
    pr.result.category_names = inputs.names;
    for (auto& per_event : pr.result.samples) {
      per_event.assign(ncat, {});
      for (auto& cell : per_event) cell.reserve(per_cat);
    }
    if (resume)
      for (hpc::HpcEvent e : hpc::all_events()) {
        const std::size_t idx = static_cast<std::size_t>(e);
        for (std::size_t c = 0; c < ncat; ++c)
          pr.result.samples[idx][c] =
              resume->partial.points[g].result.samples[idx][c];
      }
  }

  // --- Warmups: recorded and replayed into every class, mirroring the
  // live (serial, single-shard) campaign.  Cold classes are insensitive
  // to them except through the random-replacement victim RNG, which is
  // exactly why they replay unconditionally: that RNG survives cache
  // flushes, so skipping a warmup would desynchronize its stream from
  // the live run's.
  for (std::size_t w = 0; w < cfg.warmup_measurements; ++w) {
    record(*pools[w % ncat].front());
    const std::uint64_t key = acquisition::warmup_key(0, w);
    replay_all(key, std::nullopt);
    for (std::size_t g = 0; g < live.size(); ++g) (void)live_measure(g, key);
  }

  // --- Slot loop, in global (serial acquisition) slot order. -----------
  const uarch::TraceSummary& sum = trace.summary();
  auto measure_slot = [&](std::size_t c, std::size_t s) {
    const std::uint64_t slot = acquisition::global_slot(
        cfg.interleave_categories, ncat, per_cat, c, s);
    // The live campaign records every slot on its first attempt (the
    // simulated provider neither faults nor loses events), so attempt is
    // always 0.
    const std::uint64_t key = acquisition::slot_key(slot, 0);
    const std::size_t input_index = s % pools[c].size();
    record(*pools[c][input_index]);
    replay_all(key, (static_cast<std::uint64_t>(c) << 32) |
                        static_cast<std::uint64_t>(input_index));

    for (std::size_t g = 0; g < cfg.grid.size(); ++g) {
      const MemPart& m = mem_classes[mem_of[g]].out;
      const BrPart& b = br_classes[br_of[g]].out;
      hpc::ArchCounts counts;
      counts.loads = sum.loads;
      counts.stores = sum.stores;
      counts.retired = sum.retired;
      counts.branches = sum.conditional_branches + sum.structural_branches;
      counts.mispredicts = b.mispredicts;
      counts.memory_cycles = m.memory_cycles;
      counts.llc_references = m.llc_references;
      counts.llc_misses = m.llc_misses;
      const hpc::SimulatedPmuConfig& p = cfg.grid[g].pmu;
      hpc::CounterSample sample = hpc::assemble_workload_counts(p.core, counts);
      util::Rng noise(util::mix64(p.noise_seed, key));
      hpc::apply_environment(sample, p.environment, noise);
      if (cfg.verify_live) {
        const hpc::CounterSample live_sample = live_measure(g, key);
        for (hpc::HpcEvent e : hpc::all_events())
          if (sample[e] != live_sample[e]) ++stats.live_mismatches;
      }
      for (hpc::HpcEvent e : hpc::all_events())
        result.points[g]
            .result.samples[static_cast<std::size_t>(e)][c]
            .push_back(static_cast<double>(sample[e]));
    }
  };

  // The schedule as a flat slot sequence, so the cursor (and with it the
  // checkpoint) is a single integer.
  auto slot_of = [&](std::size_t idx) -> std::pair<std::size_t, std::size_t> {
    if (cfg.interleave_categories) return {idx % ncat, idx / ncat};
    return {idx / per_cat, idx % per_cat};
  };

  // --- Resume catch-up: re-record the completed slots' traces and
  // replay them into the stateful classes only, rebuilding exactly the
  // internal state (warm caches, victim RNGs, pollution cursors) an
  // uninterrupted run would hold at the cursor.  verify_live PMUs are
  // stateful in the same way, so their history is re-run too (without
  // re-scoring mismatches — those slots' samples are already committed).
  for (std::size_t idx = 0; idx < done; ++idx) {
    const auto [c, s] = slot_of(idx);
    const std::uint64_t slot = acquisition::global_slot(
        cfg.interleave_categories, ncat, per_cat, c, s);
    const std::uint64_t key = acquisition::slot_key(slot, 0);
    record(*pools[c][s % pools[c].size()]);
    replay_all(key, std::nullopt, /*stateful_only=*/true);
    for (std::size_t g = 0; g < live.size(); ++g) (void)live_measure(g, key);
  }

  // --- Supervised slot loop. -------------------------------------------
  util::CancelToken token = acquisition::run_token(cfg.cancel, cfg.deadline);

  auto flush_checkpoint = [&](std::size_t cursor) {
    if (cfg.checkpoint_path.empty()) return;
    SweepCheckpoint cp;
    cp.samples_per_category = per_cat;
    cp.interleave_categories = cfg.interleave_categories;
    cp.warmup_measurements = cfg.warmup_measurements;
    cp.verify_live = cfg.verify_live;
    cp.kernel_mode = nn::to_string(cfg.kernel_mode);
    cp.categories = cfg.categories;
    for (const SweepPoint& p : cfg.grid) cp.grid_labels.push_back(p.label);
    cp.mem_class_of = mem_of;
    cp.br_class_of = br_of;
    cp.slots_completed = cursor;
    cp.partial = result;
    cp.partial.slots_completed = cursor;
    cp.partial.complete = cursor == total_slots;
    save_sweep_checkpoint(cfg.checkpoint_path, cp);
  };

  std::size_t cursor = done;
  while (cursor < total_slots) {
    if (token.cancelled()) break;
    const auto [c, s] = slot_of(cursor);
    measure_slot(c, s);
    ++cursor;
    if (cfg.checkpoint_every_slots > 0 &&
        cursor % cfg.checkpoint_every_slots == 0 && cursor < total_slots)
      flush_checkpoint(cursor);
  }

  result.slots_completed = cursor;
  result.complete = cursor == total_slots;
  if (!result.complete) {
    result.stop_reason = acquisition::stop_reason_of(token);
    util::log_info("sweep: stopping at slot ", cursor, "/", total_slots,
                   " (", to_string(result.stop_reason),
                   "): ", token.message());
    flush_checkpoint(cursor);
  }

  // --- Diagnostics: a faultless, serial-shaped acquisition (partial
  // when supervision stopped it early). --------------------------------
  for (SweepPointResult& pr : result.points) {
    CampaignDiagnostics& d = pr.result.diagnostics;
    d.measurements_attempted = cursor;
    d.measurements_recorded = cursor;
    d.complete = result.complete;
    d.stop_reason = result.stop_reason;
    d.resumed = resume != nullptr;
    d.shard_recorded.assign(1, std::vector<std::size_t>(ncat, 0));
    for (std::size_t c = 0; c < ncat; ++c)
      d.shard_recorded[0][c] =
          cat_count(cfg.interleave_categories, ncat, per_cat, cursor, c);
  }

  result.stats = stats;
  util::log_info("sweep: ", stats.grid_points, " grid points via ",
                 stats.memory_classes, "+", stats.branch_classes,
                 " component classes; ", stats.traces_recorded,
                 " traces recorded, ", stats.replays, " replays (",
                 stats.replay_cache_hits, " cache hits)");
  return result;
}

// --- Sweep checkpoint serialization. -----------------------------------

namespace {

constexpr const char* kSweepFormatTag = "sce-sweep-checkpoint";
constexpr int kSweepVersion = 3;

}  // namespace

std::string sweep_checkpoint_to_json(const SweepCheckpoint& cp) {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value(kSweepFormatTag);
  w.key("version").value(static_cast<std::int64_t>(cp.version));
  w.key("samples_per_category")
      .value(static_cast<std::uint64_t>(cp.samples_per_category));
  w.key("interleave_categories").value(cp.interleave_categories);
  w.key("warmup_measurements")
      .value(static_cast<std::uint64_t>(cp.warmup_measurements));
  w.key("verify_live").value(cp.verify_live);
  w.key("kernel_mode").value(cp.kernel_mode);
  w.key("categories").begin_array();
  for (int c : cp.categories) w.value(static_cast<std::int64_t>(c));
  w.end_array();
  w.key("grid_labels").begin_array();
  for (const std::string& l : cp.grid_labels) w.value(l);
  w.end_array();
  w.key("mem_class_of").begin_array();
  for (std::size_t m : cp.mem_class_of)
    w.value(static_cast<std::uint64_t>(m));
  w.end_array();
  w.key("br_class_of").begin_array();
  for (std::size_t b : cp.br_class_of) w.value(static_cast<std::uint64_t>(b));
  w.end_array();
  w.key("slots_completed")
      .value(static_cast<std::uint64_t>(cp.slots_completed));
  w.key("stop_reason").value(to_string(cp.partial.stop_reason));

  w.key("points").begin_array();
  for (const SweepPointResult& pr : cp.partial.points) {
    w.begin_object();
    w.key("label").value(pr.label);
    w.key("samples");
    write_sample_cells(w, pr.result.samples);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

SweepCheckpoint sweep_checkpoint_from_json(const std::string& json) {
  const util::JsonValue doc = util::parse_json(json);
  if (!doc.is_object() || !doc.find("format") ||
      doc.at("format").as_string() != kSweepFormatTag)
    throw InvalidArgument("sweep checkpoint: not a sweep checkpoint document");
  SweepCheckpoint cp;
  cp.version = static_cast<int>(doc.at("version").as_int());
  if (cp.version != kSweepVersion)
    throw InvalidArgument("sweep checkpoint: unsupported version " +
                          std::to_string(cp.version));
  cp.samples_per_category =
      static_cast<std::size_t>(doc.at("samples_per_category").as_int());
  cp.interleave_categories = doc.at("interleave_categories").as_bool();
  cp.warmup_measurements =
      static_cast<std::size_t>(doc.at("warmup_measurements").as_int());
  cp.verify_live = doc.at("verify_live").as_bool();
  cp.kernel_mode = doc.at("kernel_mode").as_string();
  for (const auto& c : doc.at("categories").items())
    cp.categories.push_back(static_cast<int>(c.as_int()));
  for (const auto& l : doc.at("grid_labels").items())
    cp.grid_labels.push_back(l.as_string());
  for (const auto& m : doc.at("mem_class_of").items())
    cp.mem_class_of.push_back(static_cast<std::size_t>(m.as_int()));
  for (const auto& b : doc.at("br_class_of").items())
    cp.br_class_of.push_back(static_cast<std::size_t>(b.as_int()));
  cp.slots_completed =
      static_cast<std::size_t>(doc.at("slots_completed").as_int());
  cp.partial.stop_reason = parse_stop_reason(doc.at("stop_reason").as_string());
  cp.partial.slots_completed = cp.slots_completed;
  cp.partial.complete = false;

  const util::JsonValue& points = doc.at("points");
  if (points.size() != cp.grid_labels.size())
    throw InvalidArgument("sweep checkpoint: point / label count mismatch");
  std::size_t g = 0;
  for (const auto& pt : points.items()) {
    SweepPointResult pr;
    pr.label = pt.at("label").as_string();
    if (pr.label != cp.grid_labels[g])
      throw InvalidArgument("sweep checkpoint: point order mismatch");
    pr.result.categories = cp.categories;
    read_sample_cells(pt.at("samples"), cp.categories.size(),
                      pr.result.samples);
    cp.partial.points.push_back(std::move(pr));
    ++g;
  }
  return cp;
}

void save_sweep_checkpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint) {
  write_durable(path, with_crc_footer(sweep_checkpoint_to_json(checkpoint)));
  util::log_debug("sweep checkpoint: wrote ", path, " (slot ",
                  checkpoint.slots_completed, ")");
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path) {
  return sweep_checkpoint_from_json(read_verified(path));
}

}  // namespace sce::core
