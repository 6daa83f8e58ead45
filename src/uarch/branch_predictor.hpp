// Dynamic branch-prediction models.
//
// The perf events `branches` and `branch-misses` in the paper come from a
// real Intel front end; these models supply the same two counters from the
// instrumented kernel trace.  GShare is the default (closest in behaviour
// to a modern global-history predictor at this scale); bimodal, two-level
// local and static models support the ablation benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sce::uarch {

struct BranchStats {
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t taken = 0;

  double mispredict_rate() const {
    return branches == 0 ? 0.0
                         : static_cast<double>(mispredicts) /
                               static_cast<double>(branches);
  }
};

class BranchPredictor {
 public:
  virtual ~BranchPredictor() = default;

  /// Record the resolution of a conditional branch; updates internal state
  /// and the stats counters.
  void resolve(std::uintptr_t pc, bool taken) {
    const bool predicted = predict_and_train(pc, taken);
    ++stats_.branches;
    stats_.taken += taken ? 1 : 0;
    stats_.mispredicts += predicted != taken ? 1 : 0;
  }

  const BranchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = BranchStats{}; }
  /// Clear all learned state (cold start).
  virtual void flush() = 0;
  virtual std::string name() const = 0;

 protected:
  /// Predict the branch at `pc`, then train on its outcome; returns the
  /// prediction made before training.  One virtual call per branch.
  virtual bool predict_and_train(std::uintptr_t pc, bool taken) = 0;

 private:
  BranchStats stats_;
};

/// Always predicts taken (the paper-era static baseline).
class StaticTakenPredictor final : public BranchPredictor {
 public:
  void flush() override {}
  std::string name() const override { return "static-taken"; }

 protected:
  bool predict_and_train(std::uintptr_t, bool) override { return true; }
};

/// Per-PC table of 2-bit saturating counters.
class BimodalPredictor final : public BranchPredictor {
 public:
  explicit BimodalPredictor(std::size_t table_bits = 12);
  void flush() override;
  std::string name() const override { return "bimodal"; }

 protected:
  bool predict_and_train(std::uintptr_t pc, bool taken) override;

 private:
  std::vector<std::uint8_t> table_;
  std::size_t mask_;
};

/// Global-history XOR PC indexed 2-bit counters (McFarling's gshare).
class GSharePredictor final : public BranchPredictor {
 public:
  explicit GSharePredictor(std::size_t table_bits = 14,
                           std::size_t history_bits = 12);
  void flush() override;
  std::string name() const override { return "gshare"; }

 protected:
  bool predict_and_train(std::uintptr_t pc, bool taken) override;

 private:
  std::vector<std::uint8_t> table_;
  std::size_t mask_;
  std::uint64_t history_ = 0;
  std::uint64_t history_mask_;
};

/// Two-level predictor with per-branch local history (PAg-style).
class TwoLevelLocalPredictor final : public BranchPredictor {
 public:
  explicit TwoLevelLocalPredictor(std::size_t history_table_bits = 10,
                                  std::size_t history_bits = 8);
  void flush() override;
  std::string name() const override { return "two-level-local"; }

 protected:
  bool predict_and_train(std::uintptr_t pc, bool taken) override;

 private:
  std::vector<std::uint16_t> histories_;
  std::vector<std::uint8_t> counters_;
  std::size_t history_mask_entries_;
  std::uint16_t history_value_mask_;
};

enum class PredictorKind { kStaticTaken, kBimodal, kGShare, kTwoLevelLocal };

std::string to_string(PredictorKind kind);
std::unique_ptr<BranchPredictor> make_predictor(PredictorKind kind);

}  // namespace sce::uarch
