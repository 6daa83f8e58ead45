// Real Linux perf_event backend.
//
// Measures the calling process's own hardware events through
// perf_event_open(2) — the programmatic equivalent of the paper's
// `perf stat -e <event> -p <pid>`.  On hosts without a PMU (containers,
// most VMs) or with restrictive perf_event_paranoid, probe() reports the
// backend unavailable; the campaign drivers run on the simulated PMU.
#pragma once

#include <string>
#include <vector>

#include "hpc/counter_provider.hpp"

namespace sce::hpc {

class PerfEventBackend final : public CounterProvider {
 public:
  /// Opens one counter per supported event; throws Unsupported if no
  /// hardware event can be opened at all.
  PerfEventBackend();
  ~PerfEventBackend() override;

  PerfEventBackend(const PerfEventBackend&) = delete;
  PerfEventBackend& operator=(const PerfEventBackend&) = delete;

  std::string name() const override { return "perf-event"; }
  std::vector<HpcEvent> supported_events() const override;
  void start() override;
  void stop() override;
  /// Reads every open counter.  A read interrupted by a signal is retried
  /// (EINTR); a read that still fails or comes back short marks the event
  /// missing in the returned sample (CounterSample::has is false) and is
  /// recorded in read_failures() — downstream validation can then
  /// distinguish "event dropped this sample" from "event never supported".
  CounterSample read() override;

  /// Cumulative failed reads per event since construction.
  std::size_t read_failures(HpcEvent event) const;
  /// True if `event` was time-multiplexed (running < enabled) in the most
  /// recent read(); its value was scaled by enabled/running, as the
  /// kernel's rotation makes raw counts incomparable across samples.
  bool was_multiplexed(HpcEvent event) const;
  /// Cumulative multiplexed reads per event since construction.
  std::size_t multiplexed_reads(HpcEvent event) const;

  /// True if at least one hardware counter can be opened on this host.
  static bool probe();
  /// Human-readable explanation of the last probe failure ("" if ok).
  static std::string probe_error();

 private:
  struct Counter {
    HpcEvent event;
    int fd = -1;
  };
  std::vector<Counter> counters_;
  std::array<std::size_t, kNumEvents> read_failures_{};
  std::array<std::size_t, kNumEvents> multiplexed_reads_{};
  std::array<bool, kNumEvents> last_multiplexed_{};
};

}  // namespace sce::hpc
