// Instrument minting for (sharded) acquisition.
//
// An Instrument pairs the two halves of a measurement rig: the
// CounterProvider that is started/stopped/read around each
// classification, and the TraceSink the instrumented kernels write
// into.  For the SimulatedPmu both halves are the same object; for a
// real PMU the sink is a NullSink (the hardware observes the execution
// directly, no software trace is needed).
//
// The sharded campaign runtime never receives a hand-wired
// provider/sink pair; it receives an InstrumentFactory and mints one
// Instrument per shard, so every shard owns an independent provider
// (independent microarchitectural state, independent RNG streams,
// per-thread perf sessions) and no provider is ever shared across
// threads.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "hpc/counter_provider.hpp"
#include "hpc/simulated_pmu.hpp"
#include "uarch/trace.hpp"

namespace sce::hpc {

/// One shard's measurement rig.  May own its parts (minted fresh by a
/// factory) or borrow caller-owned ones (single-shard adapters); either
/// way the provider and sink stay valid for the Instrument's lifetime.
class Instrument {
 public:
  /// Adopt an object that is both provider and sink (e.g. SimulatedPmu).
  template <typename ProviderAndSink>
  static Instrument adopt(std::unique_ptr<ProviderAndSink> both) {
    Instrument instrument;
    instrument.provider_ = both.get();
    instrument.sink_ = both.get();
    instrument.owned_provider_ = std::move(both);
    return instrument;
  }

  /// Adopt a separately owned provider and sink.
  static Instrument adopt(std::unique_ptr<CounterProvider> provider,
                          std::unique_ptr<uarch::TraceSink> sink);

  /// Borrow caller-owned parts; the caller keeps them alive for as long
  /// as the Instrument is used.
  static Instrument borrow(CounterProvider& provider, uarch::TraceSink& sink);

  Instrument(Instrument&&) = default;
  Instrument& operator=(Instrument&&) = default;

  CounterProvider& provider() const { return *provider_; }
  uarch::TraceSink& sink() const { return *sink_; }

 private:
  Instrument() = default;

  std::unique_ptr<CounterProvider> owned_provider_;
  std::unique_ptr<uarch::TraceSink> owned_sink_;
  CounterProvider* provider_ = nullptr;
  uarch::TraceSink* sink_ = nullptr;
};

/// Mints one independent Instrument per shard.  create() is called from
/// the coordinating thread, once per shard per run; the minted
/// instruments are then used concurrently, one per worker.
class InstrumentFactory {
 public:
  virtual ~InstrumentFactory() = default;
  virtual std::string name() const = 0;
  /// Mint the instrument shard `shard` (0-based) of `num_shards` will own
  /// for the whole run.  Every shard's provider must report the same
  /// supported_events() set — the campaign rejects heterogeneous rigs.
  virtual Instrument create(std::size_t shard, std::size_t num_shards) = 0;
};

/// One fresh SimulatedPmu per shard, all from the same config.  Identical
/// configs are deliberate: under keyed measurements the noise streams are
/// derived per measurement slot, not per provider instance, so shards
/// need no per-shard seed plumbing to stay both independent and
/// bit-reproducible.
class SimulatedPmuFactory final : public InstrumentFactory {
 public:
  explicit SimulatedPmuFactory(SimulatedPmuConfig config = {})
      : config_(std::move(config)) {}

  std::string name() const override { return "simulated-pmu"; }
  Instrument create(std::size_t shard, std::size_t num_shards) override;

  const SimulatedPmuConfig& config() const { return config_; }

 private:
  SimulatedPmuConfig config_;
};

/// One PerfEventBackend session per shard, paired with a NullSink.  Each
/// worker thread gets its own perf file descriptors, which is exactly
/// what perf_event_open requires for per-thread counting.  Throws
/// Unsupported from create() where the host exposes no PMU.
class PerfEventFactory final : public InstrumentFactory {
 public:
  std::string name() const override { return "perf-event"; }
  Instrument create(std::size_t shard, std::size_t num_shards) override;
};

/// Adapts one caller-owned provider/sink pair to the factory interface.
/// Single-shard only: the one instrument cannot be handed to multiple
/// concurrent workers.
class SingleInstrumentFactory final : public InstrumentFactory {
 public:
  SingleInstrumentFactory(CounterProvider& provider, uarch::TraceSink& sink)
      : provider_(provider), sink_(sink) {}

  std::string name() const override { return provider_.name(); }
  /// Throws InvalidArgument when num_shards != 1.
  Instrument create(std::size_t shard, std::size_t num_shards) override;

 private:
  CounterProvider& provider_;
  uarch::TraceSink& sink_;
};

/// Mints instruments through a callback — for tests and tools that need
/// arbitrary per-shard provider stacks (fault injection over a pure
/// provider, a provider that is not its own sink, ...).
class CallbackInstrumentFactory final : public InstrumentFactory {
 public:
  using Minter = std::function<Instrument(std::size_t shard,
                                          std::size_t num_shards)>;
  explicit CallbackInstrumentFactory(Minter minter,
                                     std::string name = "callback");

  std::string name() const override { return name_; }
  Instrument create(std::size_t shard, std::size_t num_shards) override;

 private:
  Minter minter_;
  std::string name_;
};

}  // namespace sce::hpc
