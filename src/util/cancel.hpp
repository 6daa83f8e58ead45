// Cooperative, hierarchical cancellation with wall-clock deadlines.
//
// Long acquisition runs need a way to stop that does not tear threads
// down mid-measurement: a CancelToken is a shared handle that loops poll
// (cancelled()) or assert (check(), which throws the matching error from
// the supervision taxonomy in util/error.hpp) at safe points.  Tokens
// form a tree — child() mints a token that observes its parent, so
// cancelling a whole job cancels every stage derived from it while a
// stage can still be cancelled alone.  A deadline is just a pre-armed
// cancellation: once the token's (or any ancestor's) deadline passes,
// the token reports CancelReason::kDeadline.
//
// All operations are thread-safe; cancel() is idempotent (the first
// reason wins) and tokens are cheap to copy — copies share state, which
// is the point: hand one to every worker, trip it once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

namespace sce::util {

/// Why a token reports cancelled.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kCancelled,  ///< explicit cancel()
  kDeadline,   ///< wall-clock deadline expired
};

class CancelToken {
 public:
  /// A fresh root token, not cancelled, no deadline.
  CancelToken();

  /// A token derived from this one: it reports cancelled whenever any
  /// ancestor does (or its own cancel/deadline trips), but cancelling
  /// the child never affects the parent.
  CancelToken child() const;

  /// Trip the token (first reason wins; later calls are no-ops).
  void cancel(const std::string& why = "cancelled");

  /// Arm a deadline `budget` from now (replaces any earlier deadline on
  /// this token; ancestors keep their own).  A non-positive budget trips
  /// immediately.
  void set_deadline_after(std::chrono::milliseconds budget);

  /// True once this token or any ancestor is cancelled or past deadline.
  bool cancelled() const;
  /// The effective reason (nearest tripped token wins, self first).
  CancelReason reason() const;
  /// Human-readable cause recorded at cancel time ("" while kNone).
  std::string message() const;

  /// Throw the taxonomy error matching reason() if cancelled:
  /// Cancelled or DeadlineExceeded.  No-op otherwise.
  void check() const;

 private:
  struct State;
  explicit CancelToken(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

}  // namespace sce::util
