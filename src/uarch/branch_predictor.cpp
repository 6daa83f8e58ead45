#include "uarch/branch_predictor.hpp"

#include "util/error.hpp"

namespace sce::uarch {

namespace {
// 2-bit saturating counter helpers: 0,1 predict not-taken; 2,3 taken.
// The outcome is data-dependent, so the update is a table lookup rather
// than a branch on it.
bool counter_predicts_taken(std::uint8_t c) { return c >= 2; }
constexpr std::uint8_t kCounterNext[2][4] = {{0, 0, 1, 2}, {1, 2, 3, 3}};
std::uint8_t counter_update(std::uint8_t c, bool taken) {
  return kCounterNext[taken ? 1 : 0][c];
}
// Mix the low bits of a pseudo-PC (they are addresses of statics, so the
// low bits are poorly distributed without mixing).
std::size_t mix_pc(std::uintptr_t pc) {
  std::uint64_t z = static_cast<std::uint64_t>(pc);
  z = (z ^ (z >> 16)) * 0x45D9F3B3335B369ULL;
  return static_cast<std::size_t>(z ^ (z >> 32));
}
}  // namespace

BimodalPredictor::BimodalPredictor(std::size_t table_bits) {
  if (table_bits == 0 || table_bits > 24)
    throw InvalidArgument("BimodalPredictor: table_bits out of range");
  table_.assign(std::size_t{1} << table_bits, 1);  // weakly not-taken
  mask_ = table_.size() - 1;
}

bool BimodalPredictor::predict_and_train(std::uintptr_t pc, bool taken) {
  auto& c = table_[mix_pc(pc) & mask_];
  const bool predicted = counter_predicts_taken(c);
  c = counter_update(c, taken);
  return predicted;
}

void BimodalPredictor::flush() {
  for (auto& c : table_) c = 1;
}

GSharePredictor::GSharePredictor(std::size_t table_bits,
                                 std::size_t history_bits) {
  if (table_bits == 0 || table_bits > 24)
    throw InvalidArgument("GSharePredictor: table_bits out of range");
  if (history_bits > 63)
    throw InvalidArgument("GSharePredictor: history_bits out of range");
  table_.assign(std::size_t{1} << table_bits, 1);
  mask_ = table_.size() - 1;
  history_mask_ = (history_bits == 0)
                      ? 0
                      : ((std::uint64_t{1} << history_bits) - 1);
}

bool GSharePredictor::predict_and_train(std::uintptr_t pc, bool taken) {
  auto& c = table_[(mix_pc(pc) ^ static_cast<std::size_t>(history_)) & mask_];
  const bool predicted = counter_predicts_taken(c);
  c = counter_update(c, taken);
  history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
  return predicted;
}

void GSharePredictor::flush() {
  for (auto& c : table_) c = 1;
  history_ = 0;
}

TwoLevelLocalPredictor::TwoLevelLocalPredictor(std::size_t history_table_bits,
                                               std::size_t history_bits) {
  if (history_table_bits == 0 || history_table_bits > 20)
    throw InvalidArgument(
        "TwoLevelLocalPredictor: history_table_bits out of range");
  if (history_bits == 0 || history_bits > 14)
    throw InvalidArgument("TwoLevelLocalPredictor: history_bits out of range");
  histories_.assign(std::size_t{1} << history_table_bits, 0);
  counters_.assign(std::size_t{1} << history_bits, 1);
  history_mask_entries_ = histories_.size() - 1;
  history_value_mask_ =
      static_cast<std::uint16_t>((std::size_t{1} << history_bits) - 1);
}

bool TwoLevelLocalPredictor::predict_and_train(std::uintptr_t pc,
                                               bool taken) {
  std::uint16_t& hist = histories_[mix_pc(pc) & history_mask_entries_];
  auto& c = counters_[hist];
  const bool predicted = counter_predicts_taken(c);
  c = counter_update(c, taken);
  hist = static_cast<std::uint16_t>(((hist << 1) | (taken ? 1 : 0)) &
                                    history_value_mask_);
  return predicted;
}

void TwoLevelLocalPredictor::flush() {
  for (auto& h : histories_) h = 0;
  for (auto& c : counters_) c = 1;
}

std::string to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kStaticTaken:
      return "static-taken";
    case PredictorKind::kBimodal:
      return "bimodal";
    case PredictorKind::kGShare:
      return "gshare";
    case PredictorKind::kTwoLevelLocal:
      return "two-level-local";
  }
  return "?";
}

std::unique_ptr<BranchPredictor> make_predictor(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kStaticTaken:
      return std::make_unique<StaticTakenPredictor>();
    case PredictorKind::kBimodal:
      return std::make_unique<BimodalPredictor>();
    case PredictorKind::kGShare:
      return std::make_unique<GSharePredictor>();
    case PredictorKind::kTwoLevelLocal:
      return std::make_unique<TwoLevelLocalPredictor>();
  }
  throw InvalidArgument("make_predictor: unknown kind");
}

}  // namespace sce::uarch
