// Fault-injecting CounterProvider decorator.
//
// Reproduces, deterministically, the failure modes of real HPC
// acquisition on a shared host: transient syscall failures on
// start/stop/read, events missing from individual samples (counter not
// scheduled / read failed), an event dying permanently mid-campaign
// (e.g. a PMU watchdog claiming a counter), and a whole instrument dying.
//
// All randomness comes from one seeded Rng, so any observed failure
// sequence can be replayed exactly — the decorator doubles as the
// permanent test harness for the fault-tolerant acquisition path in
// core::Campaign (run/resume and the TVLA screen) and
// core::OnlineEvaluator.
#pragma once

#include <optional>
#include <string>

#include "hpc/counter_provider.hpp"
#include "util/rng.hpp"

namespace sce::hpc {

struct FaultConfig {
  /// Probability that a start()/stop()/read() call throws
  /// TransientFailure instead of doing its job.
  double transient_rate = 0.0;
  /// Which operations the transient rate applies to (tests often want to
  /// fail exactly one of them).
  bool faulty_start = true;
  bool faulty_stop = true;
  bool faulty_read = true;
  /// Per-event probability that a read() omits the event from the sample.
  double event_drop_rate = 0.0;
  /// If set, this event disappears from every sample once
  /// `permanent_fail_after` successful reads have been delivered —
  /// a counter lost for good mid-campaign.
  std::optional<HpcEvent> permanent_fail_event;
  std::size_t permanent_fail_after = 0;
  /// If > 0, the whole instrument dies after this many successful reads:
  /// every subsequent start()/stop()/read() throws TransientFailure
  /// until the caller's retry budget concedes the rig is gone.  This is
  /// *instance* state, not keyed randomness — the same measurement
  /// retried on a healthy instrument succeeds, which is exactly the
  /// contract the campaign's shard failover relies on.
  std::size_t die_after_reads = 0;
  std::uint64_t seed = 0xFA17;
};

/// Injection bookkeeping, exposed so tests can assert on exactly what
/// happened (and so the decorator can double as a call-counting spy with
/// all fault rates at zero).
struct FaultStats {
  std::size_t start_calls = 0;
  std::size_t stop_calls = 0;
  std::size_t read_calls = 0;
  std::size_t transient_failures = 0;
  std::size_t events_dropped = 0;
  /// start() minus stop() deliveries that reached the inner provider;
  /// a leak-free consumer leaves this at 0 between measurements.
  int running_depth = 0;
};

class FaultInjectingProvider final : public CounterProvider {
 public:
  /// Does not take ownership of `inner`.
  explicit FaultInjectingProvider(CounterProvider& inner,
                                  FaultConfig config = {});

  std::string name() const override { return "fault:" + inner_.name(); }
  std::vector<HpcEvent> supported_events() const override;
  void start() override;
  void stop() override;
  CounterSample read() override;
  /// Keyed mode: the injected-fault pattern of the next measurement
  /// becomes a pure function of (seed, key) — the same slot sees the same
  /// faults no matter which shard runs it or in what order.  The key is
  /// forwarded to the wrapped provider.  (The permanent-failure trip
  /// counter stays sequential: a counter dying after K reads is inherently
  /// per-instance state, not per-measurement randomness.)
  bool set_measurement_key(std::uint64_t key) override;

  const FaultStats& stats() const { return stats_; }
  /// True once the configured permanent event failure has tripped.
  bool permanent_failure_active() const;
  /// True once die_after_reads has tripped (the instrument is gone).
  bool dead() const;

 private:
  void maybe_throw(const char* op, bool enabled);
  void throw_if_dead(const char* op);

  CounterProvider& inner_;
  FaultConfig config_;
  util::Rng rng_;
  FaultStats stats_;
  std::size_t successful_reads_ = 0;
};

}  // namespace sce::hpc
