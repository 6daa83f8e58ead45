#include "util/cancel.hpp"

#include <mutex>
#include <utility>

#include "util/error.hpp"

namespace sce::util {

struct CancelToken::State {
  std::shared_ptr<State> parent;

  /// kNone until tripped; written exactly once (CAS), so readers that
  /// observe a non-kNone reason with acquire ordering also observe the
  /// message written before the release store.
  std::atomic<std::uint8_t> reason{static_cast<std::uint8_t>(
      CancelReason::kNone)};

  std::atomic<bool> has_deadline{false};
  std::chrono::steady_clock::time_point deadline{};

  std::mutex message_mutex;
  std::string message;

  /// Trip this state only (no hierarchy walk).  First caller wins.
  void trip(CancelReason why, const std::string& text) {
    {
      std::lock_guard<std::mutex> lock(message_mutex);
      if (reason.load(std::memory_order_relaxed) !=
          static_cast<std::uint8_t>(CancelReason::kNone))
        return;
      message = text;
      reason.store(static_cast<std::uint8_t>(why),
                   std::memory_order_release);
    }
  }

  /// This state's own verdict, latching an expired deadline as a trip.
  CancelReason own_reason() {
    const auto r = static_cast<CancelReason>(
        reason.load(std::memory_order_acquire));
    if (r != CancelReason::kNone) return r;
    if (has_deadline.load(std::memory_order_acquire) &&
        std::chrono::steady_clock::now() >= deadline) {
      trip(CancelReason::kDeadline, "deadline exceeded");
      return static_cast<CancelReason>(
          reason.load(std::memory_order_acquire));
    }
    return CancelReason::kNone;
  }
};

CancelToken::CancelToken() : state_(std::make_shared<State>()) {}

CancelToken::CancelToken(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

CancelToken CancelToken::child() const {
  auto state = std::make_shared<State>();
  state->parent = state_;
  return CancelToken(std::move(state));
}

void CancelToken::cancel(const std::string& why) {
  state_->trip(CancelReason::kCancelled, why);
}

void CancelToken::set_deadline_after(std::chrono::milliseconds budget) {
  state_->deadline = std::chrono::steady_clock::now() + budget;
  state_->has_deadline.store(true, std::memory_order_release);
}

bool CancelToken::cancelled() const {
  return reason() != CancelReason::kNone;
}

CancelReason CancelToken::reason() const {
  for (State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    const CancelReason r = s->own_reason();
    if (r != CancelReason::kNone) return r;
  }
  return CancelReason::kNone;
}

std::string CancelToken::message() const {
  for (State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->own_reason() == CancelReason::kNone) continue;
    std::lock_guard<std::mutex> lock(s->message_mutex);
    return s->message;
  }
  return "";
}

void CancelToken::check() const {
  switch (reason()) {
    case CancelReason::kNone:
      return;
    case CancelReason::kCancelled:
      throw Cancelled(message());
    case CancelReason::kDeadline:
      throw DeadlineExceeded(message());
  }
}

}  // namespace sce::util
