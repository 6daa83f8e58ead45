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
#include <type_traits>
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
    tally(predict_and_train(pc, taken), taken);
  }

  /// resolve() through the concrete type `P`.  `P` is final, so its
  /// predict_and_train binds statically and inlines: the simulated
  /// machine resolves every branch without a virtual call.  Each
  /// predictor befriends BranchPredictor for this.
  template <typename P>
    requires std::is_final_v<P> && std::is_base_of_v<BranchPredictor, P>
  static void resolve_as(P& predictor, std::uintptr_t pc, bool taken) {
    predictor.tally(predictor.P::predict_and_train(pc, taken), taken);
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
  void tally(bool predicted, bool taken) {
    ++stats_.branches;
    stats_.taken += taken ? 1 : 0;
    stats_.mispredicts += predicted != taken ? 1 : 0;
  }

  BranchStats stats_;
};

namespace detail {
// 2-bit saturating counter helpers: 0,1 predict not-taken; 2,3 taken.
// The outcome is data-dependent, so the update is a table lookup rather
// than a branch on it.
inline bool counter_predicts_taken(std::uint8_t c) { return c >= 2; }
inline constexpr std::uint8_t kCounterNext[2][4] = {{0, 0, 1, 2},
                                                    {1, 2, 3, 3}};
inline std::uint8_t counter_update(std::uint8_t c, bool taken) {
  return kCounterNext[taken ? 1 : 0][c];
}
// Mix the low bits of a pseudo-PC so neighbouring sites spread over the
// table.
inline std::size_t mix_pc(std::uintptr_t pc) {
  std::uint64_t z = static_cast<std::uint64_t>(pc);
  z = (z ^ (z >> 16)) * 0x45D9F3B3335B369ULL;
  return static_cast<std::size_t>(z ^ (z >> 32));
}
}  // namespace detail

/// Always predicts taken (the paper-era static baseline).
class StaticTakenPredictor final : public BranchPredictor {
 public:
  void flush() override {}
  std::string name() const override { return "static-taken"; }

 protected:
  friend class BranchPredictor;
  bool predict_and_train(std::uintptr_t, bool) override { return true; }
};

/// Per-PC table of 2-bit saturating counters.
class BimodalPredictor final : public BranchPredictor {
 public:
  explicit BimodalPredictor(std::size_t table_bits = 12);
  void flush() override;
  std::string name() const override { return "bimodal"; }

 protected:
  friend class BranchPredictor;
  bool predict_and_train(std::uintptr_t pc, bool taken) override {
    auto& c = table_[detail::mix_pc(pc) & mask_];
    const bool predicted = detail::counter_predicts_taken(c);
    c = detail::counter_update(c, taken);
    return predicted;
  }

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
  friend class BranchPredictor;
  bool predict_and_train(std::uintptr_t pc, bool taken) override {
    auto& c =
        table_[(detail::mix_pc(pc) ^ static_cast<std::size_t>(history_)) &
               mask_];
    const bool predicted = detail::counter_predicts_taken(c);
    c = detail::counter_update(c, taken);
    history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
    return predicted;
  }

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
  friend class BranchPredictor;
  bool predict_and_train(std::uintptr_t pc, bool taken) override {
    std::uint16_t& hist =
        histories_[detail::mix_pc(pc) & history_mask_entries_];
    auto& c = counters_[hist];
    const bool predicted = detail::counter_predicts_taken(c);
    c = detail::counter_update(c, taken);
    hist = static_cast<std::uint16_t>(((hist << 1) | (taken ? 1 : 0)) &
                                      history_value_mask_);
    return predicted;
  }

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
