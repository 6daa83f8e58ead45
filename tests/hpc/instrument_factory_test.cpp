#include "hpc/instrument_factory.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "hpc/perf_backend.hpp"
#include "hpc/simulated_pmu.hpp"
#include "uarch/trace.hpp"
#include "util/error.hpp"

namespace sce::hpc {
namespace {

TEST(Instrument, AdoptCombinedObjectWiresBothHalves) {
  auto pmu = std::make_unique<SimulatedPmu>();
  CounterProvider* raw = pmu.get();
  Instrument instrument = Instrument::adopt(std::move(pmu));
  EXPECT_EQ(&instrument.provider(), raw);
  // The SimulatedPmu is its own sink.
  EXPECT_EQ(&instrument.sink(),
            static_cast<uarch::TraceSink*>(static_cast<SimulatedPmu*>(raw)));
}

TEST(Instrument, AdoptSeparatePartsRejectsNull) {
  EXPECT_THROW(Instrument::adopt(nullptr, std::make_unique<uarch::NullSink>()),
               InvalidArgument);
}

TEST(Instrument, BorrowDoesNotTakeOwnership) {
  SimulatedPmu pmu;
  uarch::NullSink sink;
  {
    Instrument instrument = Instrument::borrow(pmu, sink);
    EXPECT_EQ(&instrument.provider(), &pmu);
    EXPECT_EQ(&instrument.sink(), &sink);
  }
  // pmu/sink still alive and usable after the borrowing Instrument died.
  pmu.start();
  pmu.stop();
  EXPECT_NO_THROW((void)pmu.read());
}

TEST(SimulatedPmuFactory, MintsIndependentInstrumentsPerShard) {
  SimulatedPmuFactory factory;
  Instrument a = factory.create(0, 2);
  Instrument b = factory.create(1, 2);
  EXPECT_NE(&a.provider(), &b.provider());
  EXPECT_EQ(a.provider().supported_events(), b.provider().supported_events());
}

TEST(SimulatedPmuFactory, HonoursTheSuppliedConfig) {
  SimulatedPmuConfig config;
  config.environment = SimulatedPmuConfig::no_environment();
  SimulatedPmuFactory factory(config);
  EXPECT_EQ(factory.name(), "simulated-pmu");
  Instrument instrument = factory.create(0, 1);
  instrument.provider().start();
  instrument.provider().stop();
  EXPECT_NO_THROW((void)instrument.provider().read());
}

TEST(PerfEventFactory, MintsARealCounterInstrumentOrThrows) {
  PerfEventFactory factory;
  EXPECT_EQ(factory.name(), "perf-event");
  if (!PerfEventBackend::probe()) {
    EXPECT_THROW(factory.create(0, 1), Unsupported);
    return;
  }
  // The hardware counts the kernels itself: the sink discards the trace,
  // so the layers run their untraced kernels.
  Instrument instrument = factory.create(0, 1);
  EXPECT_TRUE(instrument.sink().discards());
  EXPECT_FALSE(instrument.provider().supported_events().empty());
}

TEST(SingleInstrumentFactory, ServesExactlyOneShard) {
  SimulatedPmu pmu;
  SingleInstrumentFactory factory(pmu, pmu);
  Instrument instrument = factory.create(0, 1);
  EXPECT_EQ(&instrument.provider(), &pmu);
  EXPECT_THROW(factory.create(0, 2), InvalidArgument);
  EXPECT_THROW(factory.create(1, 2), InvalidArgument);
}

TEST(CallbackInstrumentFactory, ForwardsShardCoordinates) {
  std::size_t seen_shard = 99, seen_total = 99;
  CallbackInstrumentFactory factory(
      [&](std::size_t shard, std::size_t num_shards) {
        seen_shard = shard;
        seen_total = num_shards;
        return Instrument::adopt(std::make_unique<SimulatedPmu>());
      },
      "test-minter");
  EXPECT_EQ(factory.name(), "test-minter");
  (void)factory.create(3, 8);
  EXPECT_EQ(seen_shard, 3u);
  EXPECT_EQ(seen_total, 8u);
}

TEST(CallbackInstrumentFactory, RejectsNullMinter) {
  EXPECT_THROW(CallbackInstrumentFactory(nullptr), InvalidArgument);
}

}  // namespace
}  // namespace sce::hpc
