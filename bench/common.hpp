// Shared setup for the reproduction benches: builds/loads the two trained
// reference models with their calibrated PMU environments and runs
// measurement campaigns.
#pragma once

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "hpc/simulated_pmu.hpp"
#include "nn/zoo.hpp"

namespace sce::bench {

struct Workload {
  std::string tag;             // "MNIST" or "CIFAR-10"
  nn::TrainedModel trained;
  hpc::SimulatedPmuConfig pmu_config;
};

/// The MNIST-like workload with the default-calibrated environment.
Workload mnist_workload();
/// The CIFAR-like workload with the large-workload environment.
Workload cifar_workload();

/// Run a campaign over `categories` with `samples` measurements each.
core::CampaignResult run_workload(
    const Workload& workload, std::size_t samples,
    nn::KernelMode mode = nn::KernelMode::kDataDependent,
    const std::vector<int>& categories = {0, 1, 2, 3});

/// Samples per category used by the paper-artifact benches; override with
/// the SCE_BENCH_SAMPLES environment variable (smaller = faster smoke run).
/// A value that is not an integer >= 4 exits with status 2.
std::size_t bench_samples(std::size_t default_samples = 100);

}  // namespace sce::bench
