// The two traced instantiations of every instrumented kernel agree.
//
// A kernel streams into a SimulatedPmu through direct calls
// (TracedDomain<uarch::SimulatedMachine>) and into any other sink through
// virtual ones (TracedDomain<uarch::TraceSink>).  These tests run the zoo
// models through both — `pmu.sink()` takes the direct path, a TeeSink in
// front of a second PMU the virtual one — and require the two machines to
// end every measurement in the same state.  The predictor indexes by site
// pc, so this also pins that a site reports one pc in every
// instantiation.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "data/synthetic.hpp"
#include "hpc/simulated_pmu.hpp"
#include "nn/kernels/domain.hpp"
#include "nn/model.hpp"
#include "nn/zoo.hpp"
#include "uarch/trace.hpp"
#include "util/rng.hpp"

namespace sce::hpc {
namespace {

struct ZooCase {
  const char* name;
  nn::Sequential model;
  std::vector<nn::Tensor> inputs;
};

std::vector<ZooCase> zoo_cases() {
  data::SyntheticConfig image_cfg;
  image_cfg.examples_per_class = 1;
  image_cfg.num_classes = 2;
  data::SequenceConfig sequence_cfg;
  sequence_cfg.examples_per_class = 1;
  sequence_cfg.num_classes = 2;

  const data::Dataset mnist = data::make_mnist_like(image_cfg);
  const data::Dataset cifar = data::make_cifar_like(image_cfg);
  const data::Dataset sequences = data::make_sequence_like(sequence_cfg);

  std::vector<ZooCase> cases;
  cases.push_back({"mnist", nn::build_mnist_cnn(), {}});
  for (const data::Example& e : mnist.examples())
    cases.back().inputs.push_back(nn::image_to_tensor(e.image));
  cases.push_back({"cifar", nn::build_cifar_cnn(), {}});
  for (const data::Example& e : cifar.examples())
    cases.back().inputs.push_back(nn::image_to_tensor(e.image));
  cases.push_back({"sequence", nn::build_sequence_rnn(), {}});
  for (const data::Example& e : sequences.examples())
    cases.back().inputs.push_back(nn::image_to_tensor(e.image));

  util::Rng rng(5);
  for (ZooCase& c : cases) c.model.initialize(rng);
  return cases;
}

void expect_same(const uarch::CacheStats& a, const uarch::CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

/// Every count the two machines hold after a measurement.
void expect_same_machine(const SimulatedPmu& direct,
                         const SimulatedPmu& virtual_path) {
  const CounterSample a = direct.workload_counts();
  const CounterSample b = virtual_path.workload_counts();
  for (HpcEvent e : all_events()) EXPECT_EQ(a[e], b[e]) << to_string(e);
  EXPECT_EQ(direct.memory_cycles(), virtual_path.memory_cycles());

  const uarch::MemoryHierarchy& h = direct.hierarchy();
  const uarch::MemoryHierarchy& g = virtual_path.hierarchy();
  expect_same(h.l1d_stats(), g.l1d_stats());
  expect_same(h.l2_stats(), g.l2_stats());
  expect_same(h.llc_stats(), g.llc_stats());
  EXPECT_EQ(h.tlb_stats().accesses, g.tlb_stats().accesses);
  EXPECT_EQ(h.tlb_stats().hits, g.tlb_stats().hits);
  EXPECT_EQ(h.tlb_stats().misses, g.tlb_stats().misses);

  const uarch::BranchStats& p = direct.predictor().stats();
  const uarch::BranchStats& q = virtual_path.predictor().stats();
  EXPECT_EQ(p.branches, q.branches);
  EXPECT_EQ(p.mispredicts, q.mispredicts);
  EXPECT_EQ(p.taken, q.taken);
}

/// Runs every input of `c` through both paths under `config` and compares
/// the machines after each measurement.  Returns the conditional branches
/// resolved.
std::uint64_t compare_paths(const ZooCase& c, nn::KernelMode mode,
                            const SimulatedPmuConfig& config) {
  SimulatedPmu direct(config);
  SimulatedPmu virtual_path(config);
  uarch::TeeSink tee({&virtual_path});
  EXPECT_NE(dynamic_cast<uarch::SimulatedMachine*>(&direct.sink()), nullptr);

  std::uint64_t branches = 0;
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    nn::InferencePlan plan = c.model.plan(c.inputs[i].shape());
    for (SimulatedPmu* pmu : {&direct, &virtual_path}) {
      (void)pmu->set_measurement_key(i);
      pmu->start();
    }
    (void)plan.run(c.inputs[i], direct.sink(), mode);
    (void)plan.run(c.inputs[i], tee, mode);
    direct.stop();
    virtual_path.stop();
    expect_same_machine(direct, virtual_path);
    EXPECT_EQ(direct.read().raw(), virtual_path.read().raw());
    branches += direct.predictor().stats().branches;
  }
  return branches;
}

TEST(MachineDispatch, DirectAndVirtualPathsCountAlike) {
  SimulatedPmuConfig warm;
  warm.cold_start_per_measurement = false;
  warm.pollution_period = 97;
  warm.hierarchy.enable_next_line_prefetch = true;
  for (const ZooCase& c : zoo_cases()) {
    for (nn::KernelMode mode :
         {nn::KernelMode::kDataDependent, nn::KernelMode::kConstantFlow}) {
      SCOPED_TRACE(std::string(c.name) + " " + nn::to_string(mode));
      const std::uint64_t branches =
          compare_paths(c, mode, SimulatedPmuConfig{});
      // Constant-flow kernels may be branch-free; data-dependent ones must
      // reach the predictor, or the test would not cover it.
      if (mode == nn::KernelMode::kDataDependent) EXPECT_GT(branches, 0u);
      SCOPED_TRACE("warm, polluted, next-line prefetch");
      (void)compare_paths(c, mode, warm);
    }
  }
}

TEST(MachineDispatch, EveryPredictorAgreesAcrossPaths) {
  const std::vector<ZooCase> cases = zoo_cases();
  for (uarch::PredictorKind kind :
       {uarch::PredictorKind::kStaticTaken, uarch::PredictorKind::kBimodal,
        uarch::PredictorKind::kGShare,
        uarch::PredictorKind::kTwoLevelLocal}) {
    SCOPED_TRACE(uarch::to_string(kind));
    SimulatedPmuConfig config;
    config.predictor = kind;
    (void)compare_paths(cases.front(), nn::KernelMode::kDataDependent,
                        config);
  }
}

/// Records the witness of every branch site a symbolic run reaches.
class SiteCollector final : public nn::kernels::SymbolicExecutor {
 public:
  using Site = std::tuple<std::string, int, std::string>;

  const std::set<Site>& sites() const { return sites_; }

  nn::kernels::SymBuffer input_buffer() override { return {}; }
  nn::kernels::SymBuffer param_buffer(const char*, std::size_t) override {
    return {};
  }
  nn::kernels::SymBuffer output_buffer(std::size_t) override { return {}; }
  nn::kernels::SymBuffer scratch_buffer(const char*, std::size_t) override {
    return {};
  }
  nn::kernels::SymValue load(nn::kernels::SymBuffer, std::size_t) override {
    return {};
  }
  void store(nn::kernels::SymBuffer, std::size_t,
             nn::kernels::SymValue) override {}
  nn::kernels::SymValue value(nn::kernels::SymBuffer, std::size_t) override {
    return {};
  }
  void assign(nn::kernels::SymBuffer, std::size_t,
              nn::kernels::SymValue) override {}
  void retire(std::uint64_t) override {}
  void structural_branches(std::uint64_t) override {}
  void branch(const nn::kernels::SymSite& site,
              nn::kernels::SymValue) override {
    record(site);
  }
  void if_else(const nn::kernels::SymSite& site, nn::kernels::SymValue,
               nn::kernels::ArmRef then_arm,
               nn::kernels::ArmRef else_arm) override {
    record(site);
    then_arm();
    else_arm();
  }
  nn::kernels::SymValue rng_draw(const nn::kernels::SymSite&) override {
    return {};
  }
  void scales_with_shape() override {}
  void unmodeled(const char*) override {}

 private:
  void record(const nn::kernels::SymSite& site) {
    if (seen_.emplace(site.file, site.line, site.label).second)
      sites_.emplace(site.file, site.line, site.label);
  }

  std::set<std::tuple<const char*, int, const char*>> seen_;
  std::set<Site> sites_;
};

TEST(MachineDispatch, KernelSitePcsArePairwiseDistinct) {
  // Every branch site of the zoo's instrumented kernels, from their
  // symbolic instantiation (which sees each site's witness) ...
  SiteCollector collector;
  std::set<std::uintptr_t> traced_pcs;
  for (const ZooCase& c : zoo_cases()) {
    std::vector<std::size_t> shape = c.inputs.front().shape();
    for (const auto& layer : c.model.layers()) {
      layer->symbolic_forward(collector, shape,
                              nn::KernelMode::kDataDependent,
                              nn::ExecutionPath::kInstrumented);
      shape = layer->output_shape(shape);
    }
    // ... and every pc the traced instantiation reports for them.
    uarch::RecordingSink recording;
    nn::InferencePlan plan = c.model.plan(c.inputs.front().shape());
    (void)plan.run(c.inputs.front(), recording,
                   nn::KernelMode::kDataDependent);
    for (const uarch::RecordingSink::Event& e : recording.events())
      if (e.kind == uarch::RecordingSink::Kind::kBranch)
        traced_pcs.insert(e.address);
  }
  ASSERT_GE(collector.sites().size(), 5u);

  std::set<std::uintptr_t> site_pcs;
  for (const auto& [file, line, label] : collector.sites())
    site_pcs.insert(nn::kernels::kernel_site_pc(file.c_str(), line,
                                                label.c_str()));
  EXPECT_EQ(site_pcs.size(), collector.sites().size())
      << "two kernel sites share a pc";
  for (std::uintptr_t pc : traced_pcs)
    EXPECT_EQ(site_pcs.count(pc), 1u)
        << "traced pc " << pc << " is not the hash of any kernel site";
}

}  // namespace
}  // namespace sce::hpc
