#include "uarch/branch_predictor.hpp"

#include "util/error.hpp"

namespace sce::uarch {

BimodalPredictor::BimodalPredictor(std::size_t table_bits) {
  if (table_bits == 0 || table_bits > 24)
    throw InvalidArgument("BimodalPredictor: table_bits out of range");
  table_.assign(std::size_t{1} << table_bits, 1);  // weakly not-taken
  mask_ = table_.size() - 1;
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
