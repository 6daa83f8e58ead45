#include "common.hpp"

#include <cstdio>
#include <cstdlib>

namespace sce::bench {

Workload mnist_workload() {
  Workload w;
  w.tag = "MNIST";
  w.trained = nn::get_or_train_mnist();
  w.pmu_config.environment =
      hpc::SimulatedPmuConfig::default_environment();
  std::printf("[setup] %s model ready (test accuracy %.1f%%)\n",
              w.tag.c_str(), w.trained.test_accuracy * 100.0);
  return w;
}

Workload cifar_workload() {
  Workload w;
  w.tag = "CIFAR-10";
  w.trained = nn::get_or_train_cifar();
  w.pmu_config.environment =
      hpc::SimulatedPmuConfig::large_workload_environment();
  std::printf("[setup] %s model ready (test accuracy %.1f%%)\n",
              w.tag.c_str(), w.trained.test_accuracy * 100.0);
  return w;
}

core::CampaignResult run_workload(const Workload& workload,
                                  std::size_t samples, nn::KernelMode mode,
                                  const std::vector<int>& categories) {
  hpc::SimulatedPmuFactory instruments(workload.pmu_config);
  core::CampaignConfig cfg;
  cfg.samples_per_category = samples;
  cfg.kernel_mode = mode;
  cfg.categories = categories;
  return core::Campaign(workload.trained.model, workload.trained.test_set,
                        instruments)
      .with_config(cfg)
      .run();
}

std::size_t bench_samples(std::size_t default_samples) {
  const char* env = std::getenv("SCE_BENCH_SAMPLES");
  if (!env || !*env) return default_samples;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  // Below 4 the TVLA screen refuses to run and a two-sample t-test has
  // no variance to work with.
  if (*end != '\0' || v < 4) {
    std::fprintf(stderr,
                 "SCE_BENCH_SAMPLES=%s: must be an integer >= 4\n", env);
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

}  // namespace sce::bench
