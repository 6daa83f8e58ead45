#include "service/job.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "data/synthetic.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sce::service {

namespace {

nn::KernelMode parse_kernel_mode(const std::string& name) {
  if (name == "data-dependent") return nn::KernelMode::kDataDependent;
  if (name == "constant-flow") return nn::KernelMode::kConstantFlow;
  throw InvalidArgument("job: unknown kernel mode '" + name + "'");
}

bool is_image_kind(const std::string& kind) {
  return kind == "mnist-like" || kind == "cifar-like";
}

/// A count or category label: a JSON integer that is neither negative
/// nor too large for `T`, which a plain cast would wrap or truncate.
template <typename T>
T count_field(const util::JsonValue& value, const std::string& field) {
  const std::int64_t v = value.as_int();
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  if (v < 0 || static_cast<std::uint64_t>(v) > kMax)
    throw ValidationError("job", field,
                          "must be an integer in [0, " +
                              std::to_string(kMax) + "]");
  return static_cast<T>(v);
}

/// Config fields that affect the evaluation's result, in one fixed key
/// order.  Scheduling fields (priority, deadline) and pure execution
/// knobs (num_threads) never appear here: they cannot change a completed
/// report's bytes, so they must not split the cache.
void write_digest_fields(util::JsonWriter& w, const JobConfig& c) {
  w.key("dataset").begin_object();
  w.key("kind").value(c.dataset.kind);
  w.key("seed").value(static_cast<std::uint64_t>(c.dataset.seed));
  w.key("examples_per_class")
      .value(static_cast<std::uint64_t>(c.dataset.examples_per_class));
  w.key("num_classes").value(static_cast<std::uint64_t>(c.dataset.num_classes));
  w.key("crop").value(static_cast<std::uint64_t>(c.dataset.crop));
  w.end_object();
  w.key("categories").begin_array();
  for (int cat : c.categories) w.value(static_cast<std::int64_t>(cat));
  w.end_array();
  w.key("samples_per_category")
      .value(static_cast<std::uint64_t>(c.samples_per_category));
  w.key("kernel_mode").value(nn::to_string(c.kernel_mode));
  w.key("num_shards").value(static_cast<std::uint64_t>(c.num_shards));
  w.key("warmup_measurements")
      .value(static_cast<std::uint64_t>(c.warmup_measurements));
  w.key("interleave_categories").value(c.interleave_categories);
  w.key("alpha").value_exact(c.alpha);
}

}  // namespace

std::string to_string(Priority priority) {
  switch (priority) {
    case Priority::kLow:
      return "low";
    case Priority::kNormal:
      return "normal";
    case Priority::kHigh:
      return "high";
  }
  return "normal";
}

Priority parse_priority(const std::string& name) {
  if (name == "low") return Priority::kLow;
  if (name == "normal") return Priority::kNormal;
  if (name == "high") return Priority::kHigh;
  throw InvalidArgument("job: unknown priority '" + name + "'");
}

std::string to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPreempted:
      return "preempted";
    case JobState::kCompleted:
      return "completed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kFailed:
      return "failed";
    case JobState::kRejected:
      return "rejected";
  }
  return "queued";
}

bool is_terminal(JobState state) {
  return state == JobState::kCompleted || state == JobState::kCancelled ||
         state == JobState::kFailed || state == JobState::kRejected;
}

void JobConfig::validate() const {
  if (dataset.kind != "mnist-like" && dataset.kind != "cifar-like" &&
      dataset.kind != "sequence-like")
    throw ValidationError(
        "job", "dataset.kind",
        "must be mnist-like, cifar-like or sequence-like (got '" +
            dataset.kind + "')");
  if (dataset.examples_per_class == 0 ||
      dataset.examples_per_class > kMaxExamplesPerClass)
    throw ValidationError("job", "dataset.examples_per_class",
                          "must be in [1, " +
                              std::to_string(kMaxExamplesPerClass) + "]");
  if (dataset.num_classes == 0)
    throw ValidationError("job", "dataset.num_classes", "must be > 0");
  const std::size_t max_classes =
      dataset.kind == "sequence-like" ? std::size_t{4} : std::size_t{10};
  if (dataset.num_classes > max_classes)
    throw ValidationError("job", "dataset.num_classes",
                          "must be <= " + std::to_string(max_classes) +
                              " for " + dataset.kind + " data");
  if (dataset.crop != 0) {
    if (!is_image_kind(dataset.kind))
      throw ValidationError("job", "dataset.crop",
                            "only applies to image datasets");
    const std::size_t full = dataset.kind == "mnist-like" ? 28 : 32;
    if (dataset.crop < 4 || dataset.crop > full)
      throw ValidationError(
          "job", "dataset.crop",
          "must be in [4, " + std::to_string(full) + "] for " + dataset.kind);
  }
  if (categories.size() > kMaxCategories)
    throw ValidationError("job", "categories",
                          "must list at most " +
                              std::to_string(kMaxCategories) + " labels");
  for (std::size_t i = 0; i < categories.size(); ++i) {
    const int cat = categories[i];
    if (cat < 0 || static_cast<std::size_t>(cat) >= dataset.num_classes)
      throw ValidationError("job", "categories",
                            "contains label " + std::to_string(cat) +
                                " outside [0, " +
                                std::to_string(dataset.num_classes) + ")");
    if (std::find(categories.begin(), categories.begin() + i, cat) !=
        categories.begin() + i)
      throw ValidationError("job", "categories",
                            "lists label " + std::to_string(cat) + " twice");
  }
  if (!(alpha > 0.0) || !(alpha < 1.0))
    throw ValidationError("job", "alpha", "must be in (0, 1)");
  if (deadline < std::chrono::milliseconds::zero())
    throw ValidationError("job", "deadline", "must be >= 0");
  if (num_shards > kMaxJobShards)
    throw ValidationError("job", "num_shards",
                          "must be <= " + std::to_string(kMaxJobShards));
  if (num_threads > kMaxJobThreads)
    throw ValidationError("job", "num_threads",
                          "must be <= " + std::to_string(kMaxJobThreads));
  if (samples_per_category > kMaxSamplesPerCategory)
    throw ValidationError(
        "job", "samples_per_category",
        "must be <= " + std::to_string(kMaxSamplesPerCategory));
  if (warmup_measurements > kMaxWarmupMeasurements)
    throw ValidationError(
        "job", "warmup_measurements",
        "must be <= " + std::to_string(kMaxWarmupMeasurements));
  // The campaign-level invariants (categories non-empty, sample budget,
  // shard count, ...) are enforced by the same validator the campaign
  // itself runs, so admission and execution can never disagree.
  to_campaign_config(*this).validate();
}

std::string canonical_config_json(const JobConfig& config) {
  util::JsonWriter w;
  w.begin_object();
  write_digest_fields(w, config);
  w.end_object();
  return w.str();
}

std::string config_digest(const JobConfig& config) {
  return util::content_digest_hex(canonical_config_json(config));
}

data::Dataset make_dataset(const DatasetSpec& spec) {
  if (spec.kind == "sequence-like") {
    data::SequenceConfig cfg;
    cfg.seed = spec.seed;
    cfg.examples_per_class = spec.examples_per_class;
    cfg.num_classes = spec.num_classes;
    return data::make_sequence_like(cfg);
  }

  data::SyntheticConfig cfg;
  cfg.seed = spec.seed;
  cfg.examples_per_class = spec.examples_per_class;
  cfg.num_classes = spec.num_classes;
  const data::Dataset full = spec.kind == "mnist-like"
                                 ? data::make_mnist_like(cfg)
                                 : data::make_cifar_like(cfg);
  if (spec.crop == 0) return full;

  // Center crop, matching the offset convention of the test fixtures
  // (28x28 -> 12x12 crops at offset 8).
  data::Dataset cropped({}, full.class_names());
  for (std::size_t i = 0; i < full.size(); ++i) {
    const data::Image& src = full[i].image;
    const std::size_t off_y = (src.height() - spec.crop) / 2;
    const std::size_t off_x = (src.width() - spec.crop) / 2;
    data::Example e;
    e.label = full[i].label;
    e.image = data::Image(src.channels(), spec.crop, spec.crop);
    for (std::size_t c = 0; c < src.channels(); ++c)
      for (std::size_t y = 0; y < spec.crop; ++y)
        for (std::size_t x = 0; x < spec.crop; ++x)
          e.image.at(c, y, x) = src.at(c, y + off_y, x + off_x);
    cropped.add(std::move(e));
  }
  return cropped;
}

std::vector<std::size_t> dataset_input_shape(const DatasetSpec& spec) {
  if (spec.kind == "sequence-like") return {1, 16, 8};
  const std::size_t channels = spec.kind == "mnist-like" ? 1 : 3;
  const std::size_t full = spec.kind == "mnist-like" ? 28 : 32;
  const std::size_t side = spec.crop == 0 ? full : spec.crop;
  return {channels, side, side};
}

core::CampaignConfig to_campaign_config(const JobConfig& config) {
  core::CampaignConfig cc;
  cc.categories = config.categories;
  cc.samples_per_category = config.samples_per_category;
  cc.kernel_mode = config.kernel_mode;
  cc.interleave_categories = config.interleave_categories;
  cc.warmup_measurements = config.warmup_measurements;
  cc.num_shards = config.num_shards;
  cc.num_threads = config.num_threads;
  return cc;
}

std::string job_config_to_json(const JobConfig& config) {
  util::JsonWriter w;
  w.begin_object();
  write_digest_fields(w, config);
  w.key("num_threads").value(static_cast<std::uint64_t>(config.num_threads));
  w.key("priority").value(to_string(config.priority));
  w.key("deadline_ms")
      .value(static_cast<std::int64_t>(config.deadline.count()));
  w.end_object();
  return w.str();
}

JobConfig job_config_from_json(const std::string& json) {
  return job_config_from_value(util::parse_json(json));
}

JobConfig job_config_from_value(const util::JsonValue& doc) {
  JobConfig c;
  c.categories.clear();
  for (const auto& [key, value] : doc.members()) {
    if (key == "dataset") {
      for (const auto& [dkey, dvalue] : value.members()) {
        if (dkey == "kind")
          c.dataset.kind = dvalue.as_string();
        else if (dkey == "seed")
          c.dataset.seed = static_cast<std::uint64_t>(dvalue.as_int());
        else if (dkey == "examples_per_class")
          c.dataset.examples_per_class =
              count_field<std::size_t>(dvalue, "dataset.examples_per_class");
        else if (dkey == "num_classes")
          c.dataset.num_classes =
              count_field<std::size_t>(dvalue, "dataset.num_classes");
        else if (dkey == "crop")
          c.dataset.crop = count_field<std::size_t>(dvalue, "dataset.crop");
        else
          throw InvalidArgument("job config: unknown dataset key '" + dkey +
                                "'");
      }
    } else if (key == "categories") {
      for (const auto& item : value.items())
        c.categories.push_back(count_field<int>(item, "categories"));
    } else if (key == "samples_per_category") {
      c.samples_per_category = count_field<std::size_t>(value, key);
    } else if (key == "kernel_mode") {
      c.kernel_mode = parse_kernel_mode(value.as_string());
    } else if (key == "num_shards") {
      c.num_shards = count_field<std::size_t>(value, key);
    } else if (key == "num_threads") {
      c.num_threads = count_field<std::size_t>(value, key);
    } else if (key == "warmup_measurements") {
      c.warmup_measurements = count_field<std::size_t>(value, key);
    } else if (key == "interleave_categories") {
      c.interleave_categories = value.as_bool();
    } else if (key == "alpha") {
      c.alpha = value.as_number();
    } else if (key == "priority") {
      c.priority = parse_priority(value.as_string());
    } else if (key == "deadline_ms") {
      c.deadline = std::chrono::milliseconds(value.as_int());
    } else {
      throw InvalidArgument("job config: unknown key '" + key + "'");
    }
  }
  return c;
}

}  // namespace sce::service
