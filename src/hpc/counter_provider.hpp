// Abstract access to hardware performance counters.
//
// Two implementations exist: SimulatedPmu (trace-driven microarchitectural
// models — always available) and PerfEventBackend (the real Linux
// perf_event interface — available where the host exposes a PMU).
// The evaluator core is written against this interface only.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "hpc/events.hpp"

namespace sce::hpc {

/// One measurement: a value for each of the eight events, plus a presence
/// mask distinguishing "counted as 0" from "not counted at all" (a real
/// PMU read can fail per-event; `perf stat` prints `<not counted>`).
///
/// A default-constructed sample reports every event present (the
/// historical behaviour — the simulated PMU always counts all eight);
/// providers with partial coverage call drop() for the events they could
/// not measure, and fault-aware consumers check has() before using a
/// value.
class CounterSample {
 public:
  /// A sample with every event marked missing; providers that fill
  /// events one by one (e.g. the perf backend) start from this.
  static CounterSample all_missing() {
    CounterSample s;
    s.present_ = 0;
    return s;
  }

  /// Mutable access; does NOT change the presence mask (use set() when
  /// building a partial sample).
  std::uint64_t& operator[](HpcEvent event) {
    return values_[static_cast<std::size_t>(event)];
  }
  std::uint64_t operator[](HpcEvent event) const {
    return values_[static_cast<std::size_t>(event)];
  }

  /// Assign a value and mark the event present.
  void set(HpcEvent event, std::uint64_t value) {
    values_[static_cast<std::size_t>(event)] = value;
    present_ |= bit(event);
  }
  /// Mark the event missing from this sample (value reads as 0).
  void drop(HpcEvent event) {
    values_[static_cast<std::size_t>(event)] = 0;
    present_ &= static_cast<std::uint32_t>(~bit(event));
  }

  /// Was this event actually counted in this sample?
  bool has(HpcEvent event) const { return (present_ & bit(event)) != 0; }
  /// True when all kNumEvents events are present.
  bool complete() const {
    return present_ == ((std::uint32_t{1} << kNumEvents) - 1);
  }
  std::size_t present_count() const;
  std::vector<HpcEvent> missing_events() const;

  /// Render in `perf stat` style (Indian digit grouping, as the paper's
  /// Figure 2(b) shows); missing events print `<not counted>`.
  std::string to_perf_stat_string() const;

  const std::array<std::uint64_t, kNumEvents>& raw() const { return values_; }

 private:
  static std::uint32_t bit(HpcEvent event) {
    return std::uint32_t{1} << static_cast<std::size_t>(event);
  }

  std::array<std::uint64_t, kNumEvents> values_{};
  std::uint32_t present_ = (std::uint32_t{1} << kNumEvents) - 1;
};

class CounterProvider {
 public:
  virtual ~CounterProvider() = default;

  virtual std::string name() const = 0;

  /// Events this provider can measure (the simulated PMU supports all;
  /// a real PMU may lack some).
  virtual std::vector<HpcEvent> supported_events() const = 0;

  /// Arm the counters; resets the previous measurement.
  virtual void start() = 0;
  /// Freeze the counters.
  virtual void stop() = 0;
  /// Read the frozen counters; valid after stop().
  virtual CounterSample read() = 0;

  /// Bind the provider's stochastic state (noise, injected faults, ...)
  /// for the next measurement to `key`.  A keyed provider derives every
  /// random stream it uses for that measurement from (own_seed, key)
  /// instead of drawing from a sequential stream, so the measurement's
  /// outcome is a pure function of (workload, key) — independent of how
  /// many measurements ran before it and of which provider instance runs
  /// it.  The sharded campaign runtime keys every measurement by its
  /// global slot index, which is what makes a parallel run bit-identical
  /// to the serial one.
  ///
  /// Returns true if the provider honours keys.  The default ignores them
  /// (hardware counters have no replayable randomness to bind).
  virtual bool set_measurement_key(std::uint64_t key) {
    (void)key;
    return false;
  }
};

}  // namespace sce::hpc
