// Record-once / replay-many trace storage.
//
// A TraceBuffer is a TraceSink that captures one measurement's dynamic
// trace in a compact, relocatable encoding, so the expensive part of an
// instrumented classification — executing the network — happens once,
// and the cheap part — driving cache/branch models — can be repeated
// across many microarchitectural configurations (`replay`).
//
// ## Relocatable address encoding
//
// trace.hpp's contract streams *raw* virtual addresses, which makes a
// recorded trace a function of the recording process's heap layout.
// This buffer stores addresses in two layout-free coordinate systems:
//
//  * Registered regions (`register_region`, fed by
//    nn::InferencePlan::register_regions) are coalesced into *relocation
//    groups*: maximal sets of regions whose 4 KiB page spans intersect.
//    A page of a registered region is identified by (group, page index
//    within the group), never by its raw address.  Groups preserve the
//    exact page-sharing pattern of the live run: two accesses landed on
//    the same page live iff they map to the same (group, index) pair.
//  * Unregistered stragglers fall back to their raw page number, so
//    registration is an optimization and a portability statement, not a
//    correctness requirement.
//
// Both identities are folded into a *stable page id* (group pages live
// at kStablePageBase, far above any user-space raw page), and each
// event's address is stored as a delta-coded *canonical* address: the
// stable page's first-touch ordinal within this trace, times 4 KiB, plus
// the untouched low 12 bits.  Because SimulatedPmu's address
// normalization makes counts invariant under any page renaming that
// preserves page identity, first-touch order and page offsets — which
// both encodings are — replaying a trace reproduces the live
// measurement's counts bit-exactly (asserted in tests/hpc/replay_test).
//
// ## Replay
//
// `replay(sink, cls, addressing)` re-emits the recorded stream:
//  * kCanonical hands the sink the per-trace canonical addresses — this
//    is exactly what SimulatedPmu's normalization would produce for a
//    cold (per-measurement) mapping, so a cold consumer can skip its own
//    page-hashing entirely.
//  * kSessionStable hands it the stable page ids, which are consistent
//    across traces recorded with the same registration sequence — what a
//    *warm* consumer needs so that page identity persists across
//    replayed measurements the way raw addresses persist live.
//
// Memory and control-flow events are kept as two separately ordered
// streams (plus scalar totals for structural branches and retired
// instructions); the cross-class interleaving is not preserved.  That is
// lossless for every model in this repository: the TLB, the caches,
// next-line prefetch and the pollution stream consume only loads/stores,
// the branch predictors consume only conditional branches, and
// structural/retired counts are pure tallies — the classes never share
// state.  ReplayClass lets a driver replay just the component a
// configuration axis varies.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "uarch/trace.hpp"

namespace sce::uarch {

/// Which part of the recorded stream to re-emit.
enum class ReplayClass { kAll, kMemory, kControlFlow };

/// Address space the replayed loads/stores are expressed in (see file
/// comment).
enum class ReplayAddressing { kCanonical, kSessionStable };

/// Architectural totals of a recorded trace — everything about the
/// measurement that is independent of the microarchitectural config.
struct TraceSummary {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_bytes = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t conditional_branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t structural_branches = 0;
  std::uint64_t retired = 0;

  std::uint64_t branches() const {
    return conditional_branches + structural_branches;
  }
  std::uint64_t instructions() const {
    return loads + stores + branches() + retired;
  }
  std::uint64_t events() const {
    return loads + stores + conditional_branches;
  }
};

/// Size/shape of the encoded trace, for reports and compaction checks.
struct TraceBufferStats {
  std::uint64_t events = 0;         ///< encoded loads+stores+branches
  std::uint64_t encoded_bytes = 0;  ///< stream bytes (excl. tables)
  std::size_t regions = 0;
  std::size_t relocation_groups = 0;
  std::size_t pages_touched = 0;
  std::size_t unregistered_pages = 0;
  std::size_t branch_sites = 0;

  double bytes_per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(encoded_bytes) /
                             static_cast<double>(events);
  }
};

class TraceBuffer final : public TraceSink {
 public:
  /// Base of the canonical address space emitted by kCanonical replay.
  /// SimulatedMachine normalizes live addresses onto the same base, so a
  /// cold consumer's skipped normalization is bit-compatible with the
  /// live path.
  static constexpr std::uintptr_t kCanonicalBase = std::uintptr_t{1} << 34;
  /// First stable page id handed to relocation groups; above any
  /// user-space raw page so registered and unregistered pages never
  /// collide.
  static constexpr std::uintptr_t kStablePageBase = std::uintptr_t{1} << 48;

  /// Declare [base, base+bytes) as a relocatable buffer.  Must be called
  /// before the first event is recorded (the group layout is frozen at
  /// that point); throws InvalidArgument afterwards.  Returns the region
  /// index.  Stable page ids are a pure function of the registration
  /// sequence, so buffers that register the same regions in the same
  /// order agree on them.
  std::size_t register_region(std::string name, const void* base,
                              std::size_t bytes);
  std::size_t region_count() const { return regions_.size(); }

  // --- TraceSink (recording) -------------------------------------------
  void load(const void* addr, std::size_t bytes) override;
  void store(const void* addr, std::size_t bytes) override;
  void branch(std::uintptr_t pc, bool taken) override;
  void structural_branches(std::uint64_t n) override;
  void retire(std::uint64_t n) override;

  // --- Introspection ---------------------------------------------------
  const TraceSummary& summary() const { return summary_; }
  TraceBufferStats stats() const;
  bool empty() const { return summary_.events() == 0 && summary_.retired == 0 &&
                              summary_.structural_branches == 0; }

  /// Stable page id of each canonical page ordinal, in first-touch order.
  const std::vector<std::uintptr_t>& page_table() const { return pages_; }

  /// Drop the recorded trace but keep regions, groups and branch-site
  /// identities, so one buffer can record a whole session of
  /// measurements with a stable address vocabulary.
  void clear();

  // --- Replay ----------------------------------------------------------
  /// Re-emit the recorded stream into `sink`.  Memory events replay in
  /// recorded order, then conditional branches in recorded order, then
  /// the structural-branch and retired totals as one bulk call each
  /// (kMemory skips the branch stream and the scalar totals;
  /// kControlFlow skips the memory stream).  Thread-safe: replay is
  /// const and keeps all decode state on the caller's stack, so any
  /// number of threads may replay one buffer concurrently.
  void replay(TraceSink& sink, ReplayClass cls = ReplayClass::kAll,
              ReplayAddressing addressing = ReplayAddressing::kCanonical)
      const;

 private:
  struct Region {
    std::string name;
    std::uintptr_t base = 0;
    std::size_t bytes = 0;
  };
  /// Maximal run of registered pages whose spans intersect.  `stable`
  /// is the stable id of `first_page`.
  struct Group {
    std::uintptr_t first_page = 0;
    std::uintptr_t last_page = 0;
    std::uintptr_t stable = 0;
  };

  void seal_groups();
  std::uintptr_t stable_page_of(std::uintptr_t raw_page);
  std::uintptr_t canonicalize(const void* addr);
  void record_mem(const void* addr, std::size_t bytes, bool is_store);
  static void append_varint(std::vector<std::uint8_t>& out,
                            std::uint64_t value);

  std::vector<Region> regions_;
  std::vector<Group> groups_;  // sorted by first_page once sealed
  bool sealed_ = false;

  // Per-trace state (reset by clear()).
  TraceSummary summary_;
  std::vector<std::uint8_t> mem_stream_;
  std::vector<std::uint8_t> branch_stream_;
  std::uintptr_t last_canonical_ = kCanonicalBase;
  std::unordered_map<std::uintptr_t, std::uint32_t> page_ordinals_;
  std::vector<std::uintptr_t> pages_;  // ordinal -> stable page id
  std::size_t unregistered_pages_ = 0;
  std::size_t last_group_ = 0;  // lookup cache

  // Session state (survives clear()).
  std::unordered_map<std::uintptr_t, std::uint32_t> site_ids_;
  std::vector<std::uintptr_t> site_pcs_;
};

}  // namespace sce::uarch
