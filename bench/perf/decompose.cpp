// The decomposition pass: one instrumented measurement split into the
// stages that carry its cost, each timed around a public call.
//
// Per slot, in this order (span names in parentheses):
//   1. InferencePlan::run into a NullSink on the instrumented path — the
//      kernel loop with trace emission compiled out (nn.run_untraced);
//   2. the same run into a CountingSink — adds virtual sink dispatch
//      (hpc.run_counting);
//   3. one live SimulatedPmu measurement under the campaign's key
//      (hpc.measure);
//   4. the same run recorded into a TraceBuffer (uarch.record), then
//      SimulatedPmu::measure_trace on the recording (hpc.measure_trace);
//   5. TraceBuffer::replay of the memory and branch streams into
//      decode-only sinks (uarch.decode_memory, uarch.decode_branches), a
//      MemoryHierarchy (uarch.replay_hierarchy), a sink that only splits
//      accesses into lines (uarch.replay_lines), a standalone Tlb and L1D
//      CacheLevel fed those lines (uarch.replay_tlb, uarch.replay_l1d)
//      and a BranchPredictor (uarch.replay_predictor).
// Replays use canonical addressing and flush their structure per slot,
// which is exactly what a cold, normalising SimulatedPmu sees, so the
// component timings cover the same work as step 3.  Component times are
// reported net of the decode (and line-split) cost they sit on.
#include <memory>
#include <utility>

#include "core/acquisition_keys.hpp"
#include "nn/plan.hpp"
#include "perf.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/error.hpp"

namespace sce::bench::perf {

namespace {

/// Replay consumer with no model behind it: the decode cost that every
/// component replay also pays.
class DecodeSink final : public uarch::TraceSink {
 public:
  void load(const void*, std::size_t) override { ++memory_ops; }
  void store(const void*, std::size_t) override { ++memory_ops; }
  void branch(std::uintptr_t, bool) override { ++branches; }
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}

  std::uint64_t memory_ops = 0;
  std::uint64_t branches = 0;
};

/// Feeds loads and stores to a full MemoryHierarchy, as SimulatedPmu does.
class HierarchySink final : public uarch::TraceSink {
 public:
  explicit HierarchySink(uarch::MemoryHierarchy& h) : h_(h) {}
  void load(const void* addr, std::size_t bytes) override {
    h_.access(reinterpret_cast<std::uintptr_t>(addr), bytes, false);
  }
  void store(const void* addr, std::size_t bytes) override {
    h_.access(reinterpret_cast<std::uintptr_t>(addr), bytes, true);
  }
  void branch(std::uintptr_t, bool) override {}
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}

 private:
  uarch::MemoryHierarchy& h_;
};

/// Splits each access into lines the way MemoryHierarchy::access does and
/// hands every line to `Visit` (a standalone TLB or L1D).
template <typename Visit>
class LineSink final : public uarch::TraceSink {
 public:
  LineSink(std::size_t line_bytes, Visit visit)
      : line_(line_bytes), visit_(std::move(visit)) {}
  void load(const void* addr, std::size_t bytes) override {
    lines(addr, bytes, false);
  }
  void store(const void* addr, std::size_t bytes) override {
    lines(addr, bytes, true);
  }
  void branch(std::uintptr_t, bool) override {}
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}

 private:
  void lines(const void* addr, std::size_t bytes, bool is_write) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    for (std::uintptr_t l = a / line_; l <= (a + bytes - 1) / line_; ++l)
      visit_(l * line_, is_write);
  }
  std::size_t line_;
  Visit visit_;
};

class PredictorSink final : public uarch::TraceSink {
 public:
  explicit PredictorSink(uarch::BranchPredictor& p) : p_(p) {}
  void load(const void*, std::size_t) override {}
  void store(const void*, std::size_t) override {}
  void branch(std::uintptr_t pc, bool taken) override { p_.resolve(pc, taken); }
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}

 private:
  uarch::BranchPredictor& p_;
};

struct MissTally {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  void add(std::uint64_t a, std::uint64_t m) {
    accesses += a;
    misses += m;
  }
  double ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

}  // namespace

DecompositionResult decompose(const DecompositionInput& in, Tracer& tracer) {
  const std::size_t ncat = in.categories.size();
  std::vector<std::vector<const data::Example*>> pools;
  for (int label : in.categories) {
    pools.push_back(in.dataset->examples_of(label));
    if (pools.back().empty())
      throw InvalidArgument("decompose: no examples of label " +
                            std::to_string(label));
  }

  nn::Tensor staged;
  nn::image_to_tensor_into(pools.front().front()->image, staged);
  nn::InferencePlan plan(*in.model, staged.shape());
  uarch::TraceBuffer trace;
  plan.register_regions(trace);

  uarch::NullSink null_sink;
  hpc::SimulatedPmu live(in.pmu);
  hpc::SimulatedPmu replayed(in.pmu);
  DecodeSink decode;
  uarch::MemoryHierarchy hierarchy(in.pmu.hierarchy);
  HierarchySink hierarchy_sink(hierarchy);
  uarch::Tlb tlb(in.pmu.hierarchy.tlb);
  uarch::CacheLevel l1d(in.pmu.hierarchy.l1d);
  const std::size_t line = in.pmu.hierarchy.l1d.line_bytes;
  std::uint64_t lines_split = 0;
  auto split_visit = [&lines_split](std::uintptr_t, bool) { ++lines_split; };
  auto tlb_visit = [&tlb](std::uintptr_t a, bool) { tlb.access(a); };
  auto l1d_visit = [&l1d](std::uintptr_t a, bool w) { l1d.access(a, w); };
  LineSink<decltype(split_visit)> split_sink(line, split_visit);
  LineSink<decltype(tlb_visit)> tlb_sink(line, tlb_visit);
  LineSink<decltype(l1d_visit)> l1d_sink(line, l1d_visit);
  const std::unique_ptr<uarch::BranchPredictor> predictor =
      uarch::make_predictor(in.pmu.predictor);
  PredictorSink predictor_sink(*predictor);

  DecompositionResult out;
  std::vector<double> instructions, events, memory_ops, branches;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_events = 0;
  MissTally l1_tally, l2_tally, llc_tally, tlb_tally, branch_tally;

  // One slot: every stage in the fixed order.  `t` is null for warmups.
  auto run_slot = [&](const data::Example& example, std::uint64_t key,
                      Tracer* t, std::int64_t slot) {
    Tracer::Scope whole(t, "bench.slot", slot);
    nn::image_to_tensor_into(example.image, staged);
    {
      Tracer::Scope s(t, "nn.run_untraced", slot);
      (void)plan.run(staged, null_sink, in.mode,
                     nn::ExecutionPath::kInstrumented);
    }
    uarch::CountingSink counting;
    {
      Tracer::Scope s(t, "hpc.run_counting", slot);
      (void)plan.run(staged, counting, in.mode);
    }
    hpc::CounterSample live_sample;
    {
      Tracer::Scope s(t, "hpc.measure", slot);
      (void)live.set_measurement_key(key);
      live.start();
      (void)plan.run(staged, live.sink(), in.mode);
      live.stop();
      live_sample = live.read();
    }
    {
      Tracer::Scope s(t, "uarch.record", slot);
      trace.clear();
      (void)plan.run(staged, trace, in.mode);
    }
    hpc::CounterSample replay_sample;
    {
      Tracer::Scope s(t, "hpc.measure_trace", slot);
      (void)replayed.set_measurement_key(key);
      replay_sample = replayed.measure_trace(trace);
    }
    {
      Tracer::Scope s(t, "uarch.decode_memory", slot);
      trace.replay(decode, uarch::ReplayClass::kMemory);
    }
    {
      Tracer::Scope s(t, "uarch.decode_branches", slot);
      trace.replay(decode, uarch::ReplayClass::kControlFlow);
    }
    hierarchy.flush_all();
    hierarchy.reset_stats();
    {
      Tracer::Scope s(t, "uarch.replay_hierarchy", slot);
      trace.replay(hierarchy_sink, uarch::ReplayClass::kMemory);
    }
    {
      Tracer::Scope s(t, "uarch.replay_lines", slot);
      trace.replay(split_sink, uarch::ReplayClass::kMemory);
    }
    tlb.flush();
    tlb.reset_stats();
    {
      Tracer::Scope s(t, "uarch.replay_tlb", slot);
      trace.replay(tlb_sink, uarch::ReplayClass::kMemory);
    }
    l1d.flush();
    l1d.reset_stats();
    {
      Tracer::Scope s(t, "uarch.replay_l1d", slot);
      trace.replay(l1d_sink, uarch::ReplayClass::kMemory);
    }
    predictor->flush();
    predictor->reset_stats();
    {
      Tracer::Scope s(t, "uarch.replay_predictor", slot);
      trace.replay(predictor_sink, uarch::ReplayClass::kControlFlow);
    }

    if (replay_sample.raw() != live_sample.raw())
      out.replay_matches_live = false;
    const hpc::CounterSample arch = live.workload_counts();
    if (arch[hpc::HpcEvent::kCacheMisses] != hierarchy.last_level_misses() ||
        arch[hpc::HpcEvent::kBranchMisses] != predictor->stats().mispredicts)
      out.components_match_pmu = false;
    if (t == nullptr) return;

    const uarch::TraceSummary& sum = trace.summary();
    instructions.push_back(static_cast<double>(counting.instructions()));
    events.push_back(static_cast<double>(sum.events()));
    memory_ops.push_back(static_cast<double>(sum.loads + sum.stores));
    branches.push_back(static_cast<double>(sum.conditional_branches));
    trace_events += sum.events();
    trace_bytes += trace.stats().encoded_bytes;
    l1_tally.add(hierarchy.l1d_stats().accesses, hierarchy.l1d_stats().misses);
    l2_tally.add(hierarchy.l2_stats().accesses, hierarchy.l2_stats().misses);
    llc_tally.add(hierarchy.llc_stats().accesses, hierarchy.llc_stats().misses);
    tlb_tally.add(hierarchy.tlb_stats().accesses, hierarchy.tlb_stats().misses);
    branch_tally.add(predictor->stats().branches,
                     predictor->stats().mispredicts);
  };

  // Warmups exactly as a campaign shard takes them: the first image of
  // category w mod ncat under warmup_key(0, w), discarded.
  for (std::size_t w = 0; w < in.warmups; ++w)
    run_slot(*pools[w % ncat].front(), core::acquisition::warmup_key(0, w),
             nullptr, -1);
  // Interleaved slots with the campaign's keys: slot(c, s) = s*ncat + c.
  for (std::size_t s = 0; s < in.slots_per_category; ++s)
    for (std::size_t c = 0; c < ncat; ++c) {
      const std::uint64_t slot = core::acquisition::global_slot(
          true, ncat, in.slots_per_category, c, s);
      run_slot(*pools[c][s % pools[c].size()],
               core::acquisition::slot_key(slot, 0), &tracer,
               static_cast<std::int64_t>(slot));
    }
  out.slots = in.slots_per_category * ncat;

  auto avg = [&tracer](const char* name) {
    return mean(tracer.durations_ms(name));
  };
  const std::vector<double> measure = tracer.durations_ms("hpc.measure");
  const double kernel = avg("nn.run_untraced");
  const double dispatched = avg("hpc.run_counting");
  const double record = avg("uarch.record");
  const double decode_mem = avg("uarch.decode_memory");
  const double decode_br = avg("uarch.decode_branches");
  const double hier = avg("uarch.replay_hierarchy") - decode_mem;
  // The standalone TLB and L1D sinks split accesses into lines exactly as
  // the hierarchy does; the split-only replay nets that cost out.
  const double split = avg("uarch.replay_lines");
  const double tlb_ms = avg("uarch.replay_tlb") - split;
  const double l1d_ms = avg("uarch.replay_l1d") - split;
  const double pred = avg("uarch.replay_predictor") - decode_br;
  auto per = [](double ms, double count) {
    return count == 0.0 ? 0.0 : ms * 1e6 / count;
  };
  const double measure_p50 = percentile(measure, 0.5);
  out.measure_mean_ms = mean(measure);

  auto add = [&out](std::string name, std::string unit, std::string better,
                    bool exact, double value) {
    out.metrics.push_back(
        {std::move(name), std::move(unit), std::move(better), exact, {value}});
  };
  add("nn.kernel_ms", "ms", "lower", false, kernel);
  add("nn.instructions", "count", "lower", true, mean(instructions));
  add("nn.trace_events", "count", "lower", true, mean(events));
  add("hpc.measure_ms_p50", "ms", "lower", false, measure_p50);
  add("hpc.measure_ms_p90", "ms", "lower", false, percentile(measure, 0.9));
  add("hpc.sink_dispatch_ms", "ms", "lower", false, dispatched - kernel);
  add("hpc.self_ms", "ms", "lower", false,
      out.measure_mean_ms - dispatched - hier - pred);
  add("hpc.replay_measure_ms", "ms", "lower", false,
      record + avg("hpc.measure_trace"));
  add("uarch.hierarchy_ms", "ms", "lower", false, hier);
  add("uarch.hierarchy_ns_per_access", "ns", "lower", false,
      per(hier, mean(memory_ops)));
  // What the hierarchy spends beyond line splitting, TLB and L1D: the L2
  // and LLC lookups plus its own bookkeeping.
  add("uarch.l2_llc_ms", "ms", "lower", false,
      hier - (split - decode_mem) - tlb_ms - l1d_ms);
  add("uarch.tlb_ms", "ms", "lower", false, tlb_ms);
  add("uarch.l1d_ms", "ms", "lower", false, l1d_ms);
  add("uarch.predictor_ms", "ms", "lower", false, pred);
  add("uarch.predictor_ns_per_branch", "ns", "lower", false,
      per(pred, mean(branches)));
  add("uarch.record_ms", "ms", "lower", false, record);
  add("uarch.replay_decode_ms", "ms", "lower", false, decode_mem + decode_br);
  add("uarch.trace_bytes_per_event", "B", "lower", false,
      trace_events == 0 ? 0.0
                        : static_cast<double>(trace_bytes) /
                              static_cast<double>(trace_events));
  add("uarch.l1d_miss_ratio", "fraction", "lower", false, l1_tally.ratio());
  add("uarch.l2_miss_ratio", "fraction", "lower", false, l2_tally.ratio());
  add("uarch.llc_miss_ratio", "fraction", "lower", false, llc_tally.ratio());
  add("uarch.tlb_miss_ratio", "fraction", "lower", false, tlb_tally.ratio());
  add("uarch.mispredict_ratio", "fraction", "lower", false,
      branch_tally.ratio());
  add("uarch.hierarchy_share", "fraction", "lower", false, hier / measure_p50);
  add("uarch.predictor_share", "fraction", "lower", false, pred / measure_p50);
  return out;
}

}  // namespace sce::bench::perf
