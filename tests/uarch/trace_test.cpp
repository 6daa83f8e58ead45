#include "uarch/trace.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace sce::uarch {
namespace {

TEST(CountingSink, TalliesEverything) {
  CountingSink sink;
  int dummy = 0;
  sink.load(&dummy, 4);
  sink.load(&dummy, 8);
  sink.store(&dummy, 4);
  sink.branch(1, true);
  sink.branch(2, false);
  sink.structural_branches(10);
  sink.retire(7);

  EXPECT_EQ(sink.loads(), 2u);
  EXPECT_EQ(sink.load_bytes(), 12u);
  EXPECT_EQ(sink.stores(), 1u);
  EXPECT_EQ(sink.store_bytes(), 4u);
  EXPECT_EQ(sink.branches(), 12u);
  EXPECT_EQ(sink.taken_branches(), 11u);  // 1 taken + 10 structural
  EXPECT_EQ(sink.retired(), 7u);
  EXPECT_EQ(sink.instructions(), 2u + 1u + 12u + 7u);
}

TEST(NullSink, AcceptsEverything) {
  NullSink sink;
  int dummy = 0;
  sink.load(&dummy, 4);
  sink.store(&dummy, 4);
  sink.branch(0, true);
  sink.structural_branches(5);
  sink.retire(3);
}

TEST(RecordingSink, PreservesOrderAndContent) {
  RecordingSink sink;
  int a = 0;
  int b = 0;
  sink.load(&a, 4);
  sink.branch(0x1234, true);
  sink.store(&b, 8);
  sink.structural_branches(2);
  sink.retire(5);

  const auto& events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, RecordingSink::Kind::kLoad);
  EXPECT_EQ(events[0].address, reinterpret_cast<std::uintptr_t>(&a));
  EXPECT_EQ(events[0].value, 4u);
  EXPECT_EQ(events[1].kind, RecordingSink::Kind::kBranch);
  EXPECT_EQ(events[1].address, 0x1234u);
  EXPECT_EQ(events[1].value, 1u);
  EXPECT_EQ(events[2].kind, RecordingSink::Kind::kStore);
  EXPECT_EQ(events[3].kind, RecordingSink::Kind::kStructuralBranches);
  EXPECT_EQ(events[3].value, 2u);
  EXPECT_EQ(events[4].kind, RecordingSink::Kind::kRetire);
  EXPECT_EQ(events[4].value, 5u);
}

TEST(RecordingSink, ClearEmpties) {
  RecordingSink sink;
  sink.retire(1);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(TeeSink, FansOutToAllSinks) {
  CountingSink a;
  CountingSink b;
  TeeSink tee({&a, &b});
  int dummy = 0;
  tee.load(&dummy, 4);
  tee.store(&dummy, 4);
  tee.branch(1, false);
  tee.structural_branches(3);
  tee.retire(2);
  EXPECT_EQ(a.instructions(), b.instructions());
  EXPECT_EQ(a.loads(), 1u);
  EXPECT_EQ(b.branches(), 4u);
}

TEST(TeeSink, NullSinkRejected) {
  CountingSink a;
  EXPECT_THROW(TeeSink({&a, nullptr}), InvalidArgument);
}

}  // namespace
}  // namespace sce::uarch
