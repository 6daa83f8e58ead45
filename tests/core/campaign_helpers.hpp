// Helpers for core-module tests: synthetic campaign data and a tiny
// trained-free CNN + dataset for fast end-to-end runs.
#pragma once

#include <memory>

#include "core/campaign.hpp"
#include "data/synthetic.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/model.hpp"
#include "nn/pool.hpp"
#include "nn/shape_ops.hpp"
#include "util/rng.hpp"

namespace sce::core::testing {

/// Run a single-shard campaign over one caller-owned provider/sink pair
/// through the Campaign API (tests usually keep their rigs on the stack).
inline CampaignResult run_borrowed(const nn::Sequential& model,
                                   const data::Dataset& ds,
                                   hpc::CounterProvider& provider,
                                   uarch::TraceSink& sink,
                                   const CampaignConfig& cfg) {
  hpc::SingleInstrumentFactory instruments(provider, sink);
  return Campaign(model, ds, instruments).with_config(cfg).run();
}

/// Same, for an object that is both provider and sink (e.g. SimulatedPmu).
template <typename ProviderAndSink>
CampaignResult run_borrowed(const nn::Sequential& model,
                            const data::Dataset& ds, ProviderAndSink& pmu,
                            const CampaignConfig& cfg) {
  return run_borrowed(model, ds, pmu, pmu, cfg);
}

/// Run `campaign` under `cfg` until `k` measurements are recorded, then
/// stop it the way an operator would: `cfg` gets a fresh CancelToken that
/// the progress callback trips once k measurements are in.  Progress
/// granularity k puts the first chunk barrier exactly on k, so the run
/// returns Partial (StopReason::kCancelled) with k recorded.  The
/// campaign keeps the config and the callback afterwards.
inline CampaignResult run_until(Campaign& campaign, CampaignConfig cfg,
                                std::size_t k) {
  cfg.cancel = util::CancelToken();  // config copies share token state
  util::CancelToken stopper = cfg.cancel;
  return campaign.with_config(std::move(cfg))
      .on_progress(
          [stopper, k](const CampaignProgress& p) mutable {
            if (p.measurements_recorded >= k) stopper.cancel("kill-point");
          },
          k)
      .run();
}

/// Build a CampaignResult whose cells are Gaussian samples with the given
/// per-category means (same stddev everywhere, every event identical).
inline CampaignResult synthetic_campaign(
    const std::vector<double>& category_means, double stddev,
    std::size_t samples_per_category, std::uint64_t seed = 1) {
  CampaignResult result;
  for (std::size_t c = 0; c < category_means.size(); ++c) {
    result.categories.push_back(static_cast<int>(c));
    result.category_names.push_back("cat" + std::to_string(c));
  }
  util::Rng rng(seed);
  for (auto& per_event : result.samples) {
    per_event.assign(category_means.size(), {});
    for (std::size_t c = 0; c < category_means.size(); ++c) {
      for (std::size_t s = 0; s < samples_per_category; ++s)
        per_event[c].push_back(rng.normal(category_means[c], stddev));
    }
  }
  return result;
}

/// A campaign where exactly one event (cache-misses) separates categories
/// and everything else is identically distributed — mirrors the paper's
/// situation in miniature.
inline CampaignResult single_leaky_event_campaign(
    double separation, double stddev, std::size_t samples_per_category,
    std::size_t categories = 3, std::uint64_t seed = 2) {
  std::vector<double> flat(categories, 100.0);
  CampaignResult result =
      synthetic_campaign(flat, stddev, samples_per_category, seed);
  util::Rng rng(seed ^ 0xABCD);
  auto& leaky =
      result.samples[static_cast<std::size_t>(hpc::HpcEvent::kCacheMisses)];
  for (std::size_t c = 0; c < categories; ++c) {
    for (auto& value : leaky[c])
      value = rng.normal(100.0 + separation * static_cast<double>(c), stddev);
  }
  return result;
}

/// Tiny CNN (random weights are fine: untrained networks already have
/// input-dependent activation sparsity) on 12x12 single-channel inputs.
inline nn::Sequential tiny_model(std::uint64_t seed = 3) {
  nn::Sequential model;
  model.add(std::make_unique<nn::Conv2D>(1, 2, 3))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::MaxPool2D>(2))
      .add(std::make_unique<nn::Flatten>())
      .add(std::make_unique<nn::Dense>(2 * 5 * 5, 4))
      .add(std::make_unique<nn::Softmax>());
  util::Rng rng(seed);
  model.initialize(rng);
  return model;
}

/// Small 4-class MNIST-like dataset, downscaled images not needed — the
/// tiny model accepts 12x12, so crop the 28x28 digits.
inline data::Dataset tiny_dataset(std::size_t per_class = 6,
                                  std::uint64_t seed = 4) {
  data::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.examples_per_class = per_class;
  cfg.num_classes = 4;
  const data::Dataset full = data::make_mnist_like(cfg);
  data::Dataset cropped({}, full.class_names());
  for (std::size_t i = 0; i < full.size(); ++i) {
    data::Example e;
    e.label = full[i].label;
    e.image = data::Image(1, 12, 12);
    for (std::size_t y = 0; y < 12; ++y)
      for (std::size_t x = 0; x < 12; ++x)
        e.image.at(0, y, x) = full[i].image.at(0, y + 8, x + 8);
    cropped.add(std::move(e));
  }
  return cropped;
}

// A PMU whose counters are a pure function of the dynamic trace *counts*
// (loads, stores, branches, retires) — no addresses, no RNG, no carried
// state.  The SimulatedPmu's cache counters depend on the actual heap
// addresses of the kernel's buffers, so two campaigns in one process are
// not bit-identical (the first run's allocations shift the second run's
// layout).  Bit-for-bit reproducibility claims are about the acquisition
// layer, so its tests use this provider, for which the guarantee of
// core/checkpoint.hpp ("deterministic provider => identical result")
// actually holds.
class TracePurePmu final : public hpc::CounterProvider,
                           public uarch::TraceSink {
 public:
  std::string name() const override { return "trace-pure-pmu"; }
  std::vector<hpc::HpcEvent> supported_events() const override {
    return {hpc::all_events().begin(), hpc::all_events().end()};
  }
  void start() override { counts_ = {}; }
  void stop() override {}
  hpc::CounterSample read() override {
    const std::uint64_t mem = counts_.loads() + counts_.stores();
    const std::uint64_t instr = counts_.instructions();
    hpc::CounterSample s;
    s[hpc::HpcEvent::kInstructions] = instr;
    s[hpc::HpcEvent::kBranches] = counts_.branches();
    s[hpc::HpcEvent::kBranchMisses] = counts_.taken_branches() / 9 + 1;
    s[hpc::HpcEvent::kCacheReferences] = mem;
    s[hpc::HpcEvent::kCacheMisses] = mem / 13 + counts_.taken_branches() % 7;
    s[hpc::HpcEvent::kCycles] = instr / 2 + 4 * (mem / 13);
    s[hpc::HpcEvent::kBusCycles] = instr / 32;
    s[hpc::HpcEvent::kRefCycles] = instr / 2 + instr / 8;
    return s;
  }

  void load(const void* a, std::size_t b) override { counts_.load(a, b); }
  void store(const void* a, std::size_t b) override { counts_.store(a, b); }
  void branch(std::uintptr_t pc, bool taken) override {
    counts_.branch(pc, taken);
  }
  void structural_branches(std::uint64_t n) override {
    counts_.structural_branches(n);
  }
  void retire(std::uint64_t n) override { counts_.retire(n); }

 private:
  uarch::CountingSink counts_;
};

/// Factory minting one fresh TracePurePmu per shard — the rig for
/// bit-for-bit reproducibility tests at any shard count.
inline hpc::CallbackInstrumentFactory trace_pure_factory() {
  return hpc::CallbackInstrumentFactory(
      [](std::size_t, std::size_t) {
        return hpc::Instrument::adopt(std::make_unique<TracePurePmu>());
      },
      "trace-pure");
}

}  // namespace sce::core::testing
