// Campaign checkpoint/resume.
//
// Long campaigns on shared hosts die: OOM kills, preemption, node
// reboots.  A checkpoint serializes the partial CampaignResult plus the
// acquisition cursor (its shard_recorded merge map) to JSON, and
// Campaign::resume() continues acquisition from it — under a fixed seed
// and a deterministic provider, a killed-and-resumed campaign reproduces
// the uninterrupted run's distributions bit-for-bit (sample values are
// written with round-trip-exact precision).
//
// Durability contract (save_checkpoint): the JSON body is written to a
// temp file, fsync'd, rotated over any previous checkpoint (kept as
// `<path>.prev`), renamed into place, and the directory entry is fsync'd
// — a power cut at any instant leaves either the old or the new file
// intact, never a torn one.  Every file carries a CRC32 footer;
// load_checkpoint verifies it, quarantines a corrupt file to
// `<path>.corrupt`, and falls back to `<path>.prev` before giving up.
// A file without a footer is treated as corrupt.  Only the current
// format version (3) is read.
#pragma once

#include <string>

#include "core/campaign.hpp"

namespace sce::util {
class JsonValue;
class JsonWriter;
}  // namespace sce::util

namespace sce::core {

struct CampaignCheckpoint {
  /// Format version; bumped on layout changes.  Readers accept only the
  /// version they write (3: supervision diagnostics, shard_recorded
  /// merge map, CRC32 file footer).
  int version = 3;
  std::size_t samples_per_category = 0;
  bool interleave_categories = true;
  /// nn::to_string(KernelMode) of the campaign being checkpointed.
  std::string kernel_mode;
  CampaignResult partial;
};

/// Snapshot the in-flight state of a campaign.
CampaignCheckpoint make_checkpoint(const CampaignResult& partial,
                                   const CampaignConfig& config);

std::string checkpoint_to_json(const CampaignCheckpoint& checkpoint);
/// Throws InvalidArgument on malformed or version-incompatible input.
CampaignCheckpoint checkpoint_from_json(const std::string& json);

/// Write atomically and durably (temp file + fsync + `.prev` rotation +
/// rename + directory fsync) with a CRC32 footer.  Throws IoError on
/// failure.
void save_checkpoint(const std::string& path,
                     const CampaignCheckpoint& checkpoint);
/// Verifies the CRC32 footer; a corrupt file is quarantined to
/// `<path>.corrupt` and `<path>.prev` is tried before failing.  Throws
/// IoError if unreadable, InvalidArgument if malformed or corrupt with
/// no usable fallback.
CampaignCheckpoint load_checkpoint(const std::string& path);

// --- Shared footer/durability plumbing (reused by the sweep
// checkpoint; exposed for tests). ---------------------------------------

/// `body` + "\n#crc32:XXXXXXXX\n".
std::string with_crc_footer(const std::string& body);
/// Split and verify the footer.  Returns the body.  Throws
/// InvalidArgument when the footer is missing or the CRC mismatches.
std::string strip_crc_footer(const std::string& text);
/// Atomic + durable write of `text` (already footered) to `path` with
/// `.prev` rotation.  Throws IoError on failure.
void write_durable(const std::string& path, const std::string& text);
/// Read `path`, verify/strip its CRC footer; on corruption (including a
/// missing footer) quarantine to `<path>.corrupt` and fall back to
/// `<path>.prev`.  Returns the body.
std::string read_verified(const std::string& path);

/// samples[event][cell] — the per-event cell layout of CampaignResult.
using SampleCells =
    std::array<std::vector<std::vector<double>>, hpc::kNumEvents>;
/// Sample cells as an {event name: [[values...] per cell]} object.
/// Values use value_exact (17 significant digits) so a resumed run's
/// distributions survive the round trip bit for bit.
void write_sample_cells(util::JsonWriter& w, const SampleCells& samples);
/// Inverse of write_sample_cells; every event must carry exactly `ncat`
/// cells.  Throws InvalidArgument otherwise.
void read_sample_cells(const util::JsonValue& doc, std::size_t ncat,
                       SampleCells& samples);

}  // namespace sce::core
