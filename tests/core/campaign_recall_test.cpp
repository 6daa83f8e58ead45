// The campaign executor's recall memo: on a rig whose workload counts are
// a pure function of the input (SimulatedPmuConfig::workload_counts_are_
// pure), each shard runs its plan once per distinct input and recalls the
// stored counts, with the keyed environment overlay, for every repeat.
//
// Cache and cycle counts depend on each plan's buffer addresses, and two
// run()s build two plans (ROADMAP item 1), so every comparison here stays
// within one plan, or compares only the address-independent events.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "core/fixed_vs_random.hpp"
#include "hpc/fault_injection.hpp"
#include "hpc/instrument_factory.hpp"
#include "hpc/simulated_pmu.hpp"
#include "nn/plan.hpp"
#include "campaign_helpers.hpp"

namespace sce::core {
namespace {

using testing::tiny_dataset;

/// FNV-1a over a tensor's bytes: tells the inputs of two runs apart.
std::uint64_t fingerprint(const nn::Tensor& t) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i)
    h = (h ^ bytes[i]) * 1099511628211ULL;
  return h;
}

/// The inputs of every traced run the spy took part in, in run order.
struct RunLog {
  std::mutex mu;
  std::vector<std::uint64_t> inputs;

  std::size_t runs() {
    std::lock_guard<std::mutex> lock(mu);
    return inputs.size();
  }
  std::size_t runs_of(std::uint64_t input) {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::size_t>(
        std::count(inputs.begin(), inputs.end(), input));
  }
};

/// Identity layer that logs the input of every traced (non-discarding)
/// run: how often, and on what, a campaign ran its plans.
class RunSpy final : public nn::Layer {
 public:
  explicit RunSpy(std::shared_ptr<RunLog> log) : log_(std::move(log)) {}

  std::string name() const override { return "run-spy"; }
  using Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace&, uarch::TraceSink& sink, nn::KernelMode,
                    nn::ExecutionPath) const override {
    if (output.shape() != input.shape()) output.resize(input.shape());
    std::memcpy(output.data(), input.data(), input.numel() * sizeof(float));
    if (sink.discards()) return;
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->inputs.push_back(fingerprint(input));
  }
  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override {
    return input_shape;
  }

 private:
  std::shared_ptr<RunLog> log_;
};

/// testing::tiny_model with the spy in front of the first convolution.
nn::Sequential spied_model(std::shared_ptr<RunLog> log) {
  nn::Sequential model;
  model.add(std::make_unique<RunSpy>(std::move(log)))
      .add(std::make_unique<nn::Conv2D>(1, 2, 3))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::MaxPool2D>(2))
      .add(std::make_unique<nn::Flatten>())
      .add(std::make_unique<nn::Dense>(2 * 5 * 5, 4))
      .add(std::make_unique<nn::Softmax>());
  util::Rng rng(3);
  model.initialize(rng);
  return model;
}

/// 4 categories x 12 samples over pools of 6 images: every image is
/// measured twice, so half of the 48 slots repeat an input.
constexpr std::size_t kPool = 6;
constexpr std::size_t kSamples = 12;

CampaignConfig repeating_config(std::size_t shards = 1) {
  CampaignConfig cfg;
  cfg.samples_per_category = kSamples;
  cfg.allow_image_reuse = true;
  cfg.warmup_measurements = 1;
  cfg.num_shards = shards;
  return cfg;
}

/// A SimulatedPmu wrapped in a call-counting FaultInjectingProvider with
/// every fault rate at zero: the same machine, but not a provider the
/// memo trusts, so every slot is measured live.
hpc::CallbackInstrumentFactory decorated_factory(hpc::SimulatedPmuConfig pc) {
  return hpc::CallbackInstrumentFactory(
      [pc](std::size_t, std::size_t) {
        auto pmu = std::make_unique<hpc::SimulatedPmu>(pc);
        auto provider = std::make_unique<hpc::FaultInjectingProvider>(*pmu);
        return hpc::Instrument::adopt(std::move(provider), std::move(pmu));
      },
      "decorated-simulated-pmu");
}

hpc::SimulatedPmuConfig quiet() {
  hpc::SimulatedPmuConfig pc;
  pc.environment = hpc::SimulatedPmuConfig::no_environment();
  return pc;
}

TEST(CampaignRecall, RecalledSampleEqualsLiveMeasurementOnOnePlan) {
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = tiny_dataset();
  nn::Tensor staged;
  nn::image_to_tensor_into(ds[0].image, staged);
  nn::InferencePlan plan(model, staged.shape());

  for (const auto& env : {hpc::SimulatedPmuConfig::default_environment(),
                          hpc::SimulatedPmuConfig::large_workload_environment()}) {
    hpc::SimulatedPmuConfig pc;
    pc.environment = env;
    hpc::SimulatedPmu pmu(pc);
    auto measure = [&](const data::Example& example, std::uint64_t key) {
      nn::image_to_tensor_into(example.image, staged);
      (void)pmu.set_measurement_key(key);
      pmu.start();
      (void)plan.run(staged, pmu.sink(), nn::KernelMode::kDataDependent);
      pmu.stop();
      return pmu.read();
    };
    for (std::size_t i = 0; i < 4; ++i) {
      const data::Example& example = ds[i * 5];
      (void)measure(example, 1000 + i);
      const hpc::CounterSample stored = pmu.workload_counts();
      // Another input in between, as a campaign's slot order has.
      (void)measure(ds[i * 5 + 1], 2000 + i);
      const std::uint64_t key = 3000 + i;
      const hpc::CounterSample live = measure(example, key);
      const hpc::CounterSample recalled = pmu.read_keyed(stored, key);
      for (hpc::HpcEvent e : hpc::all_events())
        EXPECT_EQ(recalled[e], live[e])
            << hpc::to_string(e) << " input " << i * 5;
    }
  }
}

TEST(CampaignRecall, LiveRepeatsOfAnInputEqualItsFirstOccurrence) {
  // The purity the memo relies on, observed where the memo cannot act:
  // every slot here runs the plan, and with no environment overlay each
  // repeat of an image must reproduce its first measurement exactly.
  const nn::Sequential model = testing::tiny_model();
  const data::Dataset ds = tiny_dataset(kPool);
  auto instruments = decorated_factory(quiet());
  const CampaignResult r =
      Campaign(model, ds, instruments).with_config(repeating_config()).run();
  ASSERT_TRUE(r.diagnostics.complete);
  for (hpc::HpcEvent e : hpc::all_events())
    for (std::size_t c = 0; c < r.category_count(); ++c) {
      const std::vector<double>& cell = r.of(e, c);
      ASSERT_EQ(cell.size(), kSamples);
      for (std::size_t s = kPool; s < kSamples; ++s)
        EXPECT_EQ(cell[s], cell[s - kPool])
            << hpc::to_string(e) << " category " << c << " sample " << s;
    }
}

TEST(CampaignRecall, PureRigRunsThePlanOncePerDistinctInput) {
  auto log = std::make_shared<RunLog>();
  const nn::Sequential model = spied_model(log);
  const data::Dataset ds = tiny_dataset(kPool);

  hpc::SimulatedPmuFactory pure;  // the default config is pure
  ASSERT_TRUE(pure.config().workload_counts_are_pure());
  const CampaignResult recalled =
      Campaign(model, ds, pure).with_config(repeating_config()).run();
  ASSERT_TRUE(recalled.diagnostics.complete);
  // The warm-up measures an image a slot measures too.
  EXPECT_EQ(log->runs(), 4 * kPool);

  // Same rig behind a decorator: every slot and the warm-up run live.
  const std::size_t before = log->runs();
  auto decorated = decorated_factory(pure.config());
  const CampaignResult live =
      Campaign(model, ds, decorated).with_config(repeating_config()).run();
  EXPECT_EQ(log->runs() - before, 4 * kSamples + 1);

  // Across two plans only the address-independent events are comparable;
  // the environment overlay is keyed the same on both paths.
  EXPECT_EQ(recalled.diagnostics.measurements_recorded,
            live.diagnostics.measurements_recorded);
  for (hpc::HpcEvent e : {hpc::HpcEvent::kInstructions,
                          hpc::HpcEvent::kBranches,
                          hpc::HpcEvent::kBranchMisses})
    for (std::size_t c = 0; c < recalled.category_count(); ++c)
      EXPECT_EQ(recalled.of(e, c), live.of(e, c))
          << hpc::to_string(e) << " category " << c;
}

TEST(CampaignRecall, EachShardKeepsItsOwnMemo) {
  // Shard k owns indices [6k, 6k+6) of every category, and each range
  // covers the whole pool, so each of the two plans runs every image.
  auto log = std::make_shared<RunLog>();
  const nn::Sequential model = spied_model(log);
  const data::Dataset ds = tiny_dataset(kPool);
  hpc::SimulatedPmuFactory pure;
  const CampaignResult r =
      Campaign(model, ds, pure).with_config(repeating_config(2)).run();
  ASSERT_TRUE(r.diagnostics.complete);
  EXPECT_EQ(log->runs(), 2 * 4 * kPool);
}

TEST(CampaignRecall, EveryNonPureRigMeasuresEverySlot) {
  const data::Dataset ds = tiny_dataset(kPool);
  struct Axis {
    const char* name;
    hpc::SimulatedPmuConfig config;
  };
  std::vector<Axis> axes;
  {
    hpc::SimulatedPmuConfig c;
    c.cold_start_per_measurement = false;
    axes.push_back({"warm", c});
  }
  {
    hpc::SimulatedPmuConfig c;
    c.pollution_period = 97;
    axes.push_back({"polluted", c});
  }
  {
    hpc::SimulatedPmuConfig c;
    c.hierarchy.l1d.policy = uarch::ReplacementPolicy::kRandom;
    axes.push_back({"random L1D", c});
  }
  {
    hpc::SimulatedPmuConfig c;
    c.hierarchy.l2.policy = uarch::ReplacementPolicy::kRandom;
    axes.push_back({"random L2", c});
  }
  {
    hpc::SimulatedPmuConfig c;
    c.hierarchy.llc.policy = uarch::ReplacementPolicy::kRandom;
    axes.push_back({"random LLC", c});
  }
  for (const Axis& axis : axes) {
    SCOPED_TRACE(axis.name);
    ASSERT_FALSE(axis.config.workload_counts_are_pure());
    auto log = std::make_shared<RunLog>();
    const nn::Sequential model = spied_model(log);
    hpc::SimulatedPmuFactory instruments(axis.config);
    const CampaignResult r =
        Campaign(model, ds, instruments).with_config(repeating_config()).run();
    ASSERT_TRUE(r.diagnostics.complete);
    EXPECT_EQ(log->runs(), 4 * kSamples + 1);
  }
  {
    SCOPED_TRACE("fault-injecting decorator over a pure PMU");
    auto log = std::make_shared<RunLog>();
    const nn::Sequential model = spied_model(log);
    auto instruments = decorated_factory(hpc::SimulatedPmuConfig{});
    const CampaignResult r =
        Campaign(model, ds, instruments).with_config(repeating_config()).run();
    ASSERT_TRUE(r.diagnostics.complete);
    EXPECT_EQ(log->runs(), 4 * kSamples + 1);
  }
}

TEST(CampaignRecall, TvlaFixedImageIsSimulatedOncePerShard) {
  auto log = std::make_shared<RunLog>();
  const nn::Sequential model = spied_model(log);
  const data::Dataset ds = tiny_dataset(kPool);
  nn::Tensor fixed;
  nn::image_to_tensor_into(ds.examples_of(0).front()->image, fixed);
  const std::uint64_t fixed_input = fingerprint(fixed);

  hpc::SimulatedPmuFactory pure;
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    const std::size_t before = log->runs_of(fixed_input);
    FixedVsRandomConfig cfg;
    cfg.fixed_category = 0;
    cfg.samples_per_population = 30;
    cfg.num_shards = shards;
    (void)Campaign(model, ds, pure).fixed_vs_random(cfg);
    EXPECT_EQ(log->runs_of(fixed_input) - before, shards);
  }
}

TEST(CampaignRecall, PurityRuleIsPinnedPerAxis) {
  const hpc::SimulatedPmuConfig base;
  EXPECT_TRUE(base.workload_counts_are_pure());

  // Axes that leave the rule alone: the overlay, the core model, the
  // predictor and every deterministic replacement policy.
  {
    hpc::SimulatedPmuConfig c = base;
    c.environment = hpc::SimulatedPmuConfig::large_workload_environment();
    c.noise_seed = 1234;
    c.predictor = uarch::PredictorKind::kTwoLevelLocal;
    c.hierarchy.enable_next_line_prefetch = true;
    EXPECT_TRUE(c.workload_counts_are_pure());
  }
  for (auto policy :
       {uarch::ReplacementPolicy::kLru, uarch::ReplacementPolicy::kTreePlru,
        uarch::ReplacementPolicy::kFifo}) {
    hpc::SimulatedPmuConfig c = base;
    c.hierarchy.l1d.policy = policy;
    c.hierarchy.l2.policy = policy;
    c.hierarchy.llc.policy = policy;
    EXPECT_TRUE(c.workload_counts_are_pure()) << uarch::to_string(policy);
  }

  // Axes that carry state from one measurement to the next.
  hpc::SimulatedPmuConfig warm = base;
  warm.cold_start_per_measurement = false;
  EXPECT_FALSE(warm.workload_counts_are_pure());
  hpc::SimulatedPmuConfig polluted = base;
  polluted.pollution_period = 1;
  EXPECT_FALSE(polluted.workload_counts_are_pure());
  for (uarch::CacheConfig uarch::HierarchyConfig::*level :
       {&uarch::HierarchyConfig::l1d, &uarch::HierarchyConfig::l2,
        &uarch::HierarchyConfig::llc}) {
    hpc::SimulatedPmuConfig c = base;
    (c.hierarchy.*level).policy = uarch::ReplacementPolicy::kRandom;
    EXPECT_FALSE(c.workload_counts_are_pure()) << (c.hierarchy.*level).name;
  }
}

}  // namespace
}  // namespace sce::core
