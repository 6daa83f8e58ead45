#include "util/cancel.hpp"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace sce::util {
namespace {

TEST(CancelToken, FreshTokenIsNotCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.message(), "");
  EXPECT_NO_THROW(token.check());
}

TEST(CancelToken, CancelLatchesReasonAndMessage) {
  CancelToken token;
  token.cancel("user pressed ^C");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  EXPECT_EQ(token.message(), "user pressed ^C");
}

TEST(CancelToken, FirstReasonWins) {
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(0));
  ASSERT_EQ(token.reason(), CancelReason::kDeadline);  // latches the trip
  token.cancel("late explicit cancel");
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(token.message(), "deadline exceeded");
}

TEST(CancelToken, CopiesShareState) {
  CancelToken token;
  CancelToken copy = token;
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelToken, ChildObservesParentCancel) {
  CancelToken parent;
  CancelToken child = parent.child();
  EXPECT_FALSE(child.cancelled());
  parent.cancel("job aborted");
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kCancelled);
  EXPECT_EQ(child.message(), "job aborted");
}

TEST(CancelToken, CancellingChildDoesNotAffectParent) {
  CancelToken parent;
  CancelToken child = parent.child();
  child.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(CancelToken, GrandchildSeesGrandparent) {
  CancelToken root;
  CancelToken grandchild = root.child().child();
  root.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_EQ(grandchild.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, OwnReasonShadowsParentReason) {
  CancelToken parent;
  CancelToken child = parent.child();
  child.set_deadline_after(std::chrono::milliseconds(0));
  parent.cancel("parent cancelled");
  EXPECT_EQ(child.reason(), CancelReason::kDeadline);
  EXPECT_EQ(parent.reason(), CancelReason::kCancelled);
}

TEST(CancelToken, NonPositiveDeadlineTripsImmediately) {
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, DeadlineExpiresOverTime) {
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(20));
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, ChildInheritsAncestorDeadline) {
  CancelToken parent;
  parent.set_deadline_after(std::chrono::milliseconds(0));
  CancelToken child = parent.child();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, ExplicitCancelBeatsLaterDeadlineExpiry) {
  CancelToken token;
  token.cancel("stop now");
  token.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
}

TEST(CancelToken, CheckThrowsMatchingTaxonomyError) {
  CancelToken cancelled;
  cancelled.cancel("why");
  EXPECT_THROW(cancelled.check(), Cancelled);
  EXPECT_THROW(cancelled.check(), Interrupted);  // subtype of the base

  CancelToken deadline;
  deadline.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_THROW(deadline.check(), DeadlineExceeded);
}

TEST(CancelToken, CheckMessageNamesTheCause) {
  CancelToken token;
  token.cancel("operator abort");
  try {
    token.check();
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("operator abort"),
              std::string::npos);
  }
}

TEST(CancelToken, ConcurrentCancelIsSafe) {
  CancelToken token;
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t)
    threads.emplace_back(
        [&token, t] { token.cancel("racer " + std::to_string(t)); });
  for (auto& th : threads) th.join();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  // Exactly one racer's message latched, intact.
  EXPECT_NE(token.message().find("racer "), std::string::npos);
}

}  // namespace
}  // namespace sce::util
