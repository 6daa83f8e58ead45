#include "core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define SCE_HAVE_FSYNC 1
#endif

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace sce::core {

namespace {

constexpr const char* kFormatTag = "sce-campaign-checkpoint";
constexpr int kVersion = 3;

/// Footer marker; everything before the preceding newline is the body
/// the CRC covers.  A '#' line keeps the file a valid
/// one-JSON-document-plus-comment for humans and greppers.
constexpr const char* kCrcMarker = "\n#crc32:";

/// fsync a file by path (best-effort no-op on platforms without POSIX
/// fds — the rename is still atomic there, just not power-fail durable).
void fsync_path(const std::string& path, bool directory) {
#ifdef SCE_HAVE_FSYNC
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    if (!directory)
      throw IoError("save_checkpoint: cannot reopen " + path + " for fsync");
    return;  // some filesystems refuse directory opens; rename still atomic
  }
  if (::fsync(fd) != 0 && !directory) {
    ::close(fd);
    throw IoError("save_checkpoint: fsync of " + path + " failed");
  }
  ::close(fd);
#else
  (void)path;
  (void)directory;
#endif
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool file_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("load_checkpoint: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_event_name_array(util::JsonWriter& w,
                            const std::vector<hpc::HpcEvent>& events) {
  w.begin_array();
  for (hpc::HpcEvent e : events) w.value(hpc::to_string(e));
  w.end_array();
}

std::vector<hpc::HpcEvent> read_event_name_array(const util::JsonValue& v) {
  std::vector<hpc::HpcEvent> events;
  for (const auto& item : v.items()) {
    const auto parsed = hpc::parse_event(item.as_string());
    if (!parsed)
      throw InvalidArgument("checkpoint: unknown event \"" +
                            item.as_string() + "\"");
    events.push_back(*parsed);
  }
  return events;
}

}  // namespace

void write_sample_cells(util::JsonWriter& w, const SampleCells& samples) {
  w.begin_object();
  for (hpc::HpcEvent e : hpc::all_events()) {
    w.key(hpc::to_string(e)).begin_array();
    for (const auto& cell : samples[static_cast<std::size_t>(e)]) {
      w.begin_array();
      for (double v : cell) w.value_exact(v);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
}

void read_sample_cells(const util::JsonValue& doc, std::size_t ncat,
                       SampleCells& samples) {
  for (hpc::HpcEvent e : hpc::all_events()) {
    auto& per_event = samples[static_cast<std::size_t>(e)];
    const util::JsonValue& cells = doc.at(hpc::to_string(e));
    if (cells.size() != ncat)
      throw InvalidArgument("checkpoint: wrong cell count for event " +
                            hpc::to_string(e));
    for (const auto& cell : cells.items()) {
      std::vector<double> values;
      values.reserve(cell.size());
      for (const auto& v : cell.items()) values.push_back(v.as_number());
      per_event.push_back(std::move(values));
    }
  }
}

CampaignCheckpoint make_checkpoint(const CampaignResult& partial,
                                   const CampaignConfig& config) {
  CampaignCheckpoint cp;
  cp.version = kVersion;
  cp.samples_per_category = config.samples_per_category;
  cp.interleave_categories = config.interleave_categories;
  cp.kernel_mode = nn::to_string(config.kernel_mode);
  cp.partial = partial;
  return cp;
}

std::string checkpoint_to_json(const CampaignCheckpoint& cp) {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value(kFormatTag);
  w.key("version").value(static_cast<std::int64_t>(cp.version));
  w.key("samples_per_category")
      .value(static_cast<std::uint64_t>(cp.samples_per_category));
  w.key("interleave_categories").value(cp.interleave_categories);
  w.key("kernel_mode").value(cp.kernel_mode);

  w.key("categories").begin_array();
  for (int c : cp.partial.categories)
    w.value(static_cast<std::int64_t>(c));
  w.end_array();
  w.key("category_names").begin_array();
  for (const std::string& name : cp.partial.category_names) w.value(name);
  w.end_array();

  w.key("samples");
  write_sample_cells(w, cp.partial.samples);

  const CampaignDiagnostics& d = cp.partial.diagnostics;
  w.key("diagnostics").begin_object();
  w.key("measurements_attempted")
      .value(static_cast<std::uint64_t>(d.measurements_attempted));
  w.key("measurements_recorded")
      .value(static_cast<std::uint64_t>(d.measurements_recorded));
  w.key("transient_faults")
      .value(static_cast<std::uint64_t>(d.transient_faults));
  w.key("failed_measurements")
      .value(static_cast<std::uint64_t>(d.failed_measurements));
  w.key("incomplete_samples")
      .value(static_cast<std::uint64_t>(d.incomplete_samples));
  w.key("missing_event_counts").begin_object();
  for (hpc::HpcEvent e : hpc::all_events())
    w.key(hpc::to_string(e))
        .value(static_cast<std::uint64_t>(
            d.missing_event_counts[static_cast<std::size_t>(e)]));
  w.end_object();
  w.key("dropped_events");
  write_event_name_array(w, d.dropped_events);
  w.key("unsupported_events");
  write_event_name_array(w, d.unsupported_events);
  w.key("complete").value(d.complete);
  w.key("resumed").value(d.resumed);
  w.key("checkpoints_written")
      .value(static_cast<std::uint64_t>(d.checkpoints_written));
  // Supervision outcome, so a resumed run knows why (and how degraded)
  // its predecessor stopped.
  w.key("stop_reason").value(to_string(d.stop_reason));
  w.key("lost_instrument_shards").begin_array();
  for (std::size_t k : d.lost_instrument_shards)
    w.value(static_cast<std::uint64_t>(k));
  w.end_array();
  w.key("failed_over_measurements")
      .value(static_cast<std::uint64_t>(d.failed_over_measurements));
  w.key("shard_recorded").begin_array();
  for (const auto& row : d.shard_recorded) {
    w.begin_array();
    for (std::size_t n : row) w.value(static_cast<std::uint64_t>(n));
    w.end_array();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.str();
}

CampaignCheckpoint checkpoint_from_json(const std::string& json) {
  const util::JsonValue doc = util::parse_json(json);
  if (!doc.is_object() || !doc.find("format") ||
      doc.at("format").as_string() != kFormatTag)
    throw InvalidArgument("checkpoint: not a campaign checkpoint document");
  CampaignCheckpoint cp;
  cp.version = static_cast<int>(doc.at("version").as_int());
  if (cp.version != kVersion)
    throw InvalidArgument("checkpoint: unsupported version " +
                          std::to_string(cp.version));
  cp.samples_per_category =
      static_cast<std::size_t>(doc.at("samples_per_category").as_int());
  cp.interleave_categories = doc.at("interleave_categories").as_bool();
  cp.kernel_mode = doc.at("kernel_mode").as_string();

  for (const auto& c : doc.at("categories").items())
    cp.partial.categories.push_back(static_cast<int>(c.as_int()));
  for (const auto& n : doc.at("category_names").items())
    cp.partial.category_names.push_back(n.as_string());
  if (cp.partial.categories.size() != cp.partial.category_names.size())
    throw InvalidArgument(
        "checkpoint: categories / category_names size mismatch");

  read_sample_cells(doc.at("samples"), cp.partial.categories.size(),
                    cp.partial.samples);

  const util::JsonValue& diag = doc.at("diagnostics");
  CampaignDiagnostics& d = cp.partial.diagnostics;
  d.measurements_attempted =
      static_cast<std::size_t>(diag.at("measurements_attempted").as_int());
  d.measurements_recorded =
      static_cast<std::size_t>(diag.at("measurements_recorded").as_int());
  d.transient_faults =
      static_cast<std::size_t>(diag.at("transient_faults").as_int());
  d.failed_measurements =
      static_cast<std::size_t>(diag.at("failed_measurements").as_int());
  d.incomplete_samples =
      static_cast<std::size_t>(diag.at("incomplete_samples").as_int());
  for (hpc::HpcEvent e : hpc::all_events())
    d.missing_event_counts[static_cast<std::size_t>(e)] =
        static_cast<std::size_t>(
            diag.at("missing_event_counts").at(hpc::to_string(e)).as_int());
  d.dropped_events = read_event_name_array(diag.at("dropped_events"));
  d.unsupported_events = read_event_name_array(diag.at("unsupported_events"));
  d.complete = diag.at("complete").as_bool();
  d.resumed = diag.at("resumed").as_bool();
  d.checkpoints_written =
      static_cast<std::size_t>(diag.at("checkpoints_written").as_int());
  d.stop_reason = parse_stop_reason(diag.at("stop_reason").as_string());
  for (const auto& k : diag.at("lost_instrument_shards").items())
    d.lost_instrument_shards.push_back(static_cast<std::size_t>(k.as_int()));
  d.failed_over_measurements =
      static_cast<std::size_t>(diag.at("failed_over_measurements").as_int());
  for (const auto& row : diag.at("shard_recorded").items()) {
    std::vector<std::size_t> counts;
    counts.reserve(row.size());
    for (const auto& n : row.items())
      counts.push_back(static_cast<std::size_t>(n.as_int()));
    if (counts.size() != cp.partial.categories.size())
      throw InvalidArgument(
          "checkpoint: shard_recorded row has wrong category count");
    d.shard_recorded.push_back(std::move(counts));
  }
  return cp;
}

std::string with_crc_footer(const std::string& body) {
  return body + kCrcMarker + util::crc32_hex(util::crc32(body)) + "\n";
}

std::string strip_crc_footer(const std::string& text) {
  const std::size_t marker = text.rfind(kCrcMarker);
  if (marker == std::string::npos)
    throw InvalidArgument("checkpoint: missing CRC footer");
  const std::string body = text.substr(0, marker);
  std::string hex = text.substr(marker + std::string(kCrcMarker).size());
  while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r'))
    hex.pop_back();
  const std::uint32_t stored = util::parse_crc32_hex(hex);
  const std::uint32_t actual = util::crc32(body);
  if (stored != actual)
    throw InvalidArgument("checkpoint: CRC mismatch (stored " +
                          util::crc32_hex(stored) + ", computed " +
                          util::crc32_hex(actual) + ")");
  return body;
}

void write_durable(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("save_checkpoint: cannot open " + tmp);
    out << text;
    out.flush();
    if (!out) throw IoError("save_checkpoint: write to " + tmp + " failed");
  }
  // Order matters: the temp file's bytes must be on stable storage
  // before the rename publishes it, or a power cut could leave the live
  // name pointing at a hole.
  fsync_path(tmp, /*directory=*/false);
  if (file_exists(path)) {
    const std::string prev = path + ".prev";
    if (std::rename(path.c_str(), prev.c_str()) != 0)
      throw IoError("save_checkpoint: rotate to " + prev + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw IoError("save_checkpoint: rename to " + path + " failed");
  // Persist both directory entries (the new name and the rotation).
  fsync_path(parent_dir(path), /*directory=*/true);
}

std::string read_verified(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return strip_crc_footer(text);
  } catch (const InvalidArgument& e) {
    // Quarantine, keep the evidence, fall back to the previous
    // generation if the rotation left one behind.
    const std::string corrupt = path + ".corrupt";
    if (std::rename(path.c_str(), corrupt.c_str()) == 0)
      util::log_warn("checkpoint: ", e.what(), "; quarantined ", path,
                     " to ", corrupt);
    else
      util::log_warn("checkpoint: ", e.what(), " (quarantine of ", path,
                     " failed)");
    const std::string prev = path + ".prev";
    if (!file_exists(prev)) throw;
    util::log_warn("checkpoint: falling back to ", prev);
    const std::string prev_text = read_file(prev);
    return strip_crc_footer(prev_text);  // rethrows if also bad
  }
}

void save_checkpoint(const std::string& path,
                     const CampaignCheckpoint& checkpoint) {
  write_durable(path, with_crc_footer(checkpoint_to_json(checkpoint)));
  util::log_debug("checkpoint: wrote ", path, " (",
                  checkpoint.partial.diagnostics.measurements_recorded,
                  " measurements)");
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  return checkpoint_from_json(read_verified(path));
}

}  // namespace sce::core
