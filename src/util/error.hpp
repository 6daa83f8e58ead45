// Error types shared across the sce libraries.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace sce {

/// Base class for all errors thrown by the sce libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller passed an argument that violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A config field failed validation.  Every campaign-facing config's
/// validate() (CampaignConfig, FixedVsRandomConfig, SweepConfig,
/// OnlineConfig, RetryPolicy, service::JobConfig) throws this structured
/// form: `domain` names the config family ("campaign", "sweep", ...),
/// `field` the offending member, `constraint` the violated rule.  The
/// rendered message stays the familiar "domain: field constraint" text,
/// and the type derives from InvalidArgument so existing catch sites are
/// untouched — but a remote caller (the evaluation service relays these
/// verbatim as rejection replies) can report which field to fix without
/// parsing prose.
class ValidationError : public InvalidArgument {
 public:
  ValidationError(std::string domain, std::string field,
                  std::string constraint)
      : InvalidArgument(domain + ": " + field + " " + constraint),
        domain_(std::move(domain)),
        field_(std::move(field)),
        constraint_(std::move(constraint)) {}

  const std::string& domain() const { return domain_; }
  const std::string& field() const { return field_; }
  const std::string& constraint() const { return constraint_; }

 private:
  std::string domain_;
  std::string field_;
  std::string constraint_;
};

/// An I/O operation (file load/store) failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A platform facility (e.g. perf_event_open) is unavailable.
class Unsupported : public Error {
 public:
  explicit Unsupported(const std::string& what) : Error(what) {}
};

/// A transient measurement failure (interrupted syscall, counter briefly
/// unschedulable, co-tenant interference).  Retrying the operation is
/// expected to succeed; acquisition drivers catch this type and apply
/// their RetryPolicy instead of aborting the campaign.
class TransientFailure : public Error {
 public:
  explicit TransientFailure(const std::string& what) : Error(what) {}
};

// --- Supervision taxonomy ------------------------------------------------
// The supervised execution runtime (util/cancel.hpp, core::Campaign)
// stops work through these types rather than a bare Error, so drivers
// can tell a user cancel from a blown deadline from a sick instrument and
// react per cause.  Campaign::run/sweep themselves translate
// Cancelled/DeadlineExceeded raised inside their shards into a Partial
// result with a flushed checkpoint; the types still escape from code
// without a partial-result channel (CancelToken::check in user
// workloads, the fixed-vs-random screen).

/// Base of the supervision taxonomy: the work was stopped by policy, not
/// by a defect — completed measurements remain valid.
class Interrupted : public Error {
 public:
  explicit Interrupted(const std::string& what) : Error(what) {}
};

/// A CancelToken was tripped explicitly (operator stop, job eviction).
class Cancelled : public Interrupted {
 public:
  explicit Cancelled(const std::string& what) : Interrupted(what) {}
};

/// A wall-clock deadline armed on a CancelToken expired.
class DeadlineExceeded : public Interrupted {
 public:
  explicit DeadlineExceeded(const std::string& what) : Interrupted(what) {}
};

/// A shard's instrument failed permanently (its RetryPolicy kept
/// exhausting).  Raised by the shard loop to request failover; escapes
/// Campaign::run only when no healthy instrument remains.
class InstrumentLost : public Error {
 public:
  explicit InstrumentLost(const std::string& what) : Error(what) {}
};

}  // namespace sce
