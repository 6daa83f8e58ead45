#include "hpc/fault_injection.hpp"

#include "util/error.hpp"

namespace sce::hpc {

FaultInjectingProvider::FaultInjectingProvider(CounterProvider& inner,
                                               FaultConfig config)
    : inner_(inner), config_(config), rng_(config.seed) {
  auto check_rate = [](double rate, const char* what) {
    if (rate < 0.0 || rate > 1.0)
      throw InvalidArgument(std::string("FaultInjectingProvider: ") + what +
                            " must be in [0, 1]");
  };
  check_rate(config_.transient_rate, "transient_rate");
  check_rate(config_.event_drop_rate, "event_drop_rate");
}

std::vector<HpcEvent> FaultInjectingProvider::supported_events() const {
  return inner_.supported_events();
}

bool FaultInjectingProvider::set_measurement_key(std::uint64_t key) {
  rng_ = util::Rng(util::mix64(config_.seed, key));
  (void)inner_.set_measurement_key(key);
  return true;
}

bool FaultInjectingProvider::permanent_failure_active() const {
  return config_.permanent_fail_event.has_value() &&
         successful_reads_ >= config_.permanent_fail_after;
}

bool FaultInjectingProvider::dead() const {
  return config_.die_after_reads > 0 &&
         successful_reads_ >= config_.die_after_reads;
}

void FaultInjectingProvider::throw_if_dead(const char* op) {
  if (!dead()) return;
  ++stats_.transient_failures;
  throw TransientFailure(std::string("injected instrument death in ") + op +
                         " (" + inner_.name() + ")");
}

void FaultInjectingProvider::maybe_throw(const char* op, bool enabled) {
  if (!enabled) return;
  if (config_.transient_rate > 0.0 && rng_.chance(config_.transient_rate)) {
    ++stats_.transient_failures;
    throw TransientFailure(std::string("injected transient fault in ") +
                                 op + " (" + inner_.name() + ")");
  }
}

void FaultInjectingProvider::start() {
  ++stats_.start_calls;
  // The fault fires before the inner provider arms: a failed
  // perf_event ioctl leaves the counters untouched.
  throw_if_dead("start");
  maybe_throw("start", config_.faulty_start);
  inner_.start();
  ++stats_.running_depth;
}

void FaultInjectingProvider::stop() {
  ++stats_.stop_calls;
  throw_if_dead("stop");
  maybe_throw("stop", config_.faulty_stop);
  inner_.stop();
  --stats_.running_depth;
}

CounterSample FaultInjectingProvider::read() {
  ++stats_.read_calls;
  throw_if_dead("read");
  maybe_throw("read", config_.faulty_read);
  CounterSample sample = inner_.read();

  if (config_.event_drop_rate > 0.0) {
    for (HpcEvent e : all_events()) {
      if (!sample.has(e)) continue;
      if (rng_.chance(config_.event_drop_rate)) {
        sample.drop(e);
        ++stats_.events_dropped;
      }
    }
  }

  if (permanent_failure_active() && sample.has(*config_.permanent_fail_event)) {
    sample.drop(*config_.permanent_fail_event);
    ++stats_.events_dropped;
  }

  ++successful_reads_;
  return sample;
}

}  // namespace sce::hpc
