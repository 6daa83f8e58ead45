// Pinned microarchitectural counts.
//
// Cache and predictor counts from zoo traces depend on where the heap put
// each tensor, so they cannot be pinned across binaries.  These tests feed
// seeded synthetic address and branch streams — fixed integers, no heap
// addresses — into the uarch models and compare a digest of every
// resulting counter against a constant.  Any change to a model's
// behaviour (a different hit, victim, prefetch or prediction anywhere in
// the stream) moves a digest; a pure speed change must leave them all
// alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hpc/simulated_pmu.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/hierarchy.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sce::uarch {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void append_stats(std::string& out, const CacheStats& s) {
  for (std::uint64_t v :
       {s.accesses, s.hits, s.misses, s.evictions, s.writebacks})
    append_u64(out, v);
}

void append_stats(std::string& out, const TlbStats& s) {
  for (std::uint64_t v : {s.accesses, s.hits, s.misses}) append_u64(out, v);
}

void append_stats(std::string& out, const BranchStats& s) {
  for (std::uint64_t v : {s.branches, s.mispredicts, s.taken})
    append_u64(out, v);
}

void append_stats(std::string& out, const MemoryHierarchy& h) {
  append_stats(out, h.l1d_stats());
  append_stats(out, h.l2_stats());
  append_stats(out, h.llc_stats());
  append_stats(out, h.tlb_stats());
  // Two zero words where a since-removed stride prefetcher's trained and
  // issued counters went, so every digest pinned before its removal
  // still applies unedited.
  append_u64(out, 0);
  append_u64(out, 0);
  append_u64(out, h.last_level_references());
  append_u64(out, h.last_level_misses());
}

struct Access {
  std::uintptr_t address;
  std::size_t bytes;
  bool is_write;
};

/// A seeded mix of the access shapes kernels and co-tenants produce:
/// page-local runs, interleaved strided streams, line-straddling
/// accesses, random addresses over 64 MiB and short descending streams
/// that end at address zero.
std::vector<Access> address_stream(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<Access> out;
  out.reserve(n + 256);
  const std::uintptr_t base = 0x10000000;
  std::uintptr_t strided[3] = {base + 0x100000, base + 0x400000,
                               base + 0x900000};
  const std::uintptr_t strides[3] = {64, 192, 4096 + 64};
  while (out.size() < n) {
    switch (rng.below(5)) {
      case 0: {
        const std::uintptr_t page = base + rng.below(512) * 4096;
        const std::size_t len = 16 + rng.below(240);
        std::uintptr_t offset = rng.below(1024) * 4;
        for (std::size_t i = 0; i < len && offset < 4096; ++i, offset += 4)
          out.push_back({page + offset, 4, rng.chance(0.25)});
        break;
      }
      case 1: {
        const std::size_t len = 8 + rng.below(56);
        for (std::size_t i = 0; i < len; ++i) {
          const std::size_t s = i % 3;
          out.push_back({strided[s], 4, s == 2 && rng.chance(0.5)});
          strided[s] += strides[s];
        }
        break;
      }
      case 2: {
        const std::size_t len = 4 + rng.below(28);
        for (std::size_t i = 0; i < len; ++i) {
          const std::uintptr_t line = base + rng.below(1 << 16) * 64;
          const std::size_t bytes = 2 + rng.below(63);
          out.push_back({line + 64 - bytes / 2, bytes, rng.chance(0.3)});
        }
        break;
      }
      case 3:
        out.push_back({base + rng.below(std::uint64_t{64} << 20),
                       1 + rng.below(16), rng.chance(0.3)});
        break;
      default: {
        for (std::uintptr_t line = 8 + rng.below(24);; --line) {
          out.push_back({line * 64 + 8, 8, false});
          if (line == 0) break;
        }
        break;
      }
    }
  }
  out.resize(n);
  return out;
}

constexpr std::size_t kAccesses = 120000;

/// Drives `h` with the seeded stream, with a full flush halfway and a
/// burst of co-tenant pollution every 5000 accesses, and digests the
/// cycles of every access plus all counters at the end.
std::string hierarchy_digest(MemoryHierarchy& h, std::uint64_t seed) {
  util::Rng pollution(seed ^ 0x5EEDULL);
  std::string bytes;
  std::uint64_t lines = 0;
  const std::vector<Access> stream = address_stream(seed, kAccesses);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == stream.size() / 2) h.flush_all();
    if (i % 5000 == 4999) h.pollute(3, pollution);
    const Access& a = stream[i];
    const AccessResult r = h.access(a.address, a.bytes, a.is_write);
    append_u64(bytes, r.cycles);
    lines += r.lines_touched;
  }
  append_u64(bytes, lines);
  append_stats(bytes, h);
  return util::content_digest_hex(bytes);
}

struct HierarchyCell {
  ReplacementPolicy policy;
  bool next_line_prefetch;
  std::uint64_t seed;
  const char* digest;
};

TEST(PinnedCounts, HierarchyPolicyPrefetchMatrix) {
  using P = ReplacementPolicy;
  const HierarchyCell cells[] = {
      {P::kLru, false, 1, "d43096d79d690aeb88d27aaad1b12a75"},
      {P::kLru, true, 2, "9ba8dfba69d6a5cf1ee026e819ca2109"},
      {P::kTreePlru, false, 4, "f8f38974186b8904b46f57db7c2a0b06"},
      {P::kTreePlru, true, 5, "59599413839db643559cb2b6125bf471"},
      {P::kFifo, false, 7, "003163e7c0a0558de3851676263c88bf"},
      {P::kFifo, true, 8, "62ff793429cedd82a8504c5d5f93ba2c"},
      {P::kRandom, false, 10, "f77b14fefbdcad5cc60fcdbc26f09b82"},
      {P::kRandom, true, 11, "5b62e89cc05b30990e623c3f88f28463"},
  };
  for (const HierarchyCell& cell : cells) {
    HierarchyConfig cfg;
    cfg.l1d.policy = cell.policy;
    cfg.l2.policy = cell.policy;
    cfg.llc.policy = cell.policy;
    cfg.enable_next_line_prefetch = cell.next_line_prefetch;
    MemoryHierarchy h(cfg, 11 + cell.seed);
    EXPECT_EQ(hierarchy_digest(h, cell.seed), cell.digest)
        << to_string(cell.policy)
        << (cell.next_line_prefetch ? " next-line" : " no prefetch");
  }
}

TEST(PinnedCounts, HierarchyUnusualGeometries) {
  // Six- and twelve-way sets (a tree-PLRU over a non-power-of-two way
  // count), 32-byte lines, a small TLB and next-line prefetch.
  HierarchyConfig odd;
  odd.l1d = {"L1D", 24 * 1024, 6, 32, ReplacementPolicy::kTreePlru};
  odd.l2 = {"L2", 192 * 1024, 12, 32, ReplacementPolicy::kTreePlru};
  odd.llc = {"LLC", 1024 * 1024, 16, 32, ReplacementPolicy::kLru};
  odd.enable_next_line_prefetch = true;
  odd.tlb = {32, 2, 4096};
  MemoryHierarchy odd_h(odd, 5);
  EXPECT_EQ(hierarchy_digest(odd_h, 23),
            "da929ac2c43bec15c3b6a0d231304f1f")
      << "odd geometry, next-line";
}

/// Seeded branch stream over 48 sites with four behaviours: biased,
/// periodic (loop-like), random and correlated with the previous outcome
/// of any branch.  Sites come in bursts of one to sixteen.
std::vector<std::pair<std::uintptr_t, bool>> branch_stream(std::uint64_t seed,
                                                           std::size_t n) {
  util::Rng rng(seed);
  constexpr std::size_t kSites = 48;
  std::vector<std::uint64_t> visits(kSites, 0);
  std::vector<std::pair<std::uintptr_t, bool>> out;
  out.reserve(n + 16);
  bool last = false;
  while (out.size() < n) {
    const std::size_t k = rng.below(kSites);
    const std::uintptr_t pc = 0x401000 + 24 * k + (k % 5 == 0 ? 0x7ff0000 : 0);
    const std::size_t burst = 1 + rng.below(16);
    for (std::size_t i = 0; i < burst; ++i) {
      bool taken = false;
      switch (k % 4) {
        case 0:
          taken = rng.chance(k % 8 == 0 ? 0.9 : 0.1);
          break;
        case 1:
          taken = visits[k] % (2 + k % 7) != 0;
          break;
        case 2:
          taken = rng.chance(0.5);
          break;
        default:
          taken = last != ((k & 2) != 0);
          break;
      }
      ++visits[k];
      last = taken;
      out.emplace_back(pc, taken);
    }
  }
  out.resize(n);
  return out;
}

std::string predictor_digest(BranchPredictor& p, std::uint64_t seed) {
  std::string bytes;
  const auto stream = branch_stream(seed, 60000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == stream.size() / 2) p.flush();
    p.resolve(stream[i].first, stream[i].second);
    if (i % 64 == 63) append_u64(bytes, p.stats().mispredicts);
  }
  append_stats(bytes, p.stats());
  return util::content_digest_hex(bytes);
}

TEST(PinnedCounts, BranchPredictors) {
  struct Cell {
    PredictorKind kind;
    const char* digest;
  };
  const Cell cells[] = {
      {PredictorKind::kStaticTaken, "5eab5f07c75c978bdc2bae1aae142f65"},
      {PredictorKind::kBimodal, "018aaf2434f242ee391d5a98cef9db14"},
      {PredictorKind::kGShare, "525ce41346deb99f70cef252464c065d"},
      {PredictorKind::kTwoLevelLocal, "f25f66afc4408dbbedfdfbaa8d12ae45"},
  };
  for (const Cell& cell : cells) {
    auto p = make_predictor(cell.kind);
    EXPECT_EQ(predictor_digest(*p, 31), cell.digest) << to_string(cell.kind);
  }
  // Small tables, so sites alias.
  BimodalPredictor bimodal(4);
  EXPECT_EQ(predictor_digest(bimodal, 32),
            "617f77fc08b13ddad1600109247348c0")
      << "bimodal(4)";
  GSharePredictor gshare(8, 6);
  EXPECT_EQ(predictor_digest(gshare, 33),
            "9056e2228917f466ce50698dd5d12938")
      << "gshare(8, 6)";
  GSharePredictor no_history(6, 0);
  EXPECT_EQ(predictor_digest(no_history, 34),
            "2dd7cfd6866accf2d2d94fc8e536349c")
      << "gshare(6, 0)";
  TwoLevelLocalPredictor local(4, 3);
  EXPECT_EQ(predictor_digest(local, 35),
            "ede0345c0784f93836db7aa4c4e854be")
      << "two-level-local(4, 3)";
}

/// Six keyed measurements through the TraceSink interface.  The
/// addresses are integers cast to pointers and never dereferenced.  Each
/// measurement reaches pages the previous ones did not, so the
/// first-touch page map grows across warm measurements, and each starts
/// on the page where the previous one ended.
std::string pmu_digest(const hpc::SimulatedPmuConfig& config,
                       std::uint64_t seed) {
  hpc::SimulatedPmu pmu(config);
  std::string bytes;
  const void* last = nullptr;
  for (std::uint64_t m = 0; m < 6; ++m) {
    const auto accesses = address_stream(seed + 100 * m, 20000);
    const auto branches = branch_stream(seed + 100 * m, 4000);
    (void)pmu.set_measurement_key(m);
    pmu.start();
    if (last != nullptr) pmu.load(last, 4);
    std::size_t b = 0;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      const Access& a = accesses[i];
      const auto* ptr = reinterpret_cast<const void*>(
          a.address + (m << 22));
      last = ptr;
      if (a.is_write)
        pmu.store(ptr, a.bytes);
      else
        pmu.load(ptr, a.bytes);
      if (i % 5 == 0 && b < branches.size()) {
        pmu.branch(branches[b].first, branches[b].second);
        ++b;
      }
      if (i % 97 == 0) pmu.retire(3);
      if (i % 211 == 0) pmu.structural_branches(2);
    }
    pmu.stop();
    const hpc::CounterSample workload = pmu.workload_counts();
    const hpc::CounterSample sample = pmu.read();
    for (hpc::HpcEvent e : hpc::all_events()) {
      append_u64(bytes, workload[e]);
      append_u64(bytes, sample[e]);
    }
    append_u64(bytes, pmu.memory_cycles());
    append_stats(bytes, pmu.hierarchy());
    append_stats(bytes, pmu.predictor().stats());
  }
  return util::content_digest_hex(bytes);
}

TEST(PinnedCounts, SimulatedPmuMeasurements) {
  // Warm measurements with co-tenant pollution: the page map and the
  // caches carry over from one measurement to the next.
  hpc::SimulatedPmuConfig warm;
  warm.cold_start_per_measurement = false;
  warm.pollution_period = 97;
  EXPECT_EQ(pmu_digest(warm, 41),
            "3b8c21ce282597c5c23db02bbae599a7")
      << "warm, polluted";

  // The campaign default: cold start, normalised addresses.
  EXPECT_EQ(pmu_digest(hpc::SimulatedPmuConfig{}, 42),
            "619110d69ecf7a2e5132f681024cd0cc")
      << "cold";

  // Sparse pollution and the two-level local predictor.
  hpc::SimulatedPmuConfig polluted;
  polluted.pollution_period = 1000;
  polluted.predictor = PredictorKind::kTwoLevelLocal;
  EXPECT_EQ(pmu_digest(polluted, 43),
            "e21a5b137e65a16a9a3fa2ba84e69b88")
      << "cold, polluted, two-level local";

  // Warm, unpolluted, with the bimodal predictor.
  hpc::SimulatedPmuConfig warm_bimodal;
  warm_bimodal.cold_start_per_measurement = false;
  warm_bimodal.predictor = PredictorKind::kBimodal;
  EXPECT_EQ(pmu_digest(warm_bimodal, 44),
            "6f4392e452cc9f9fb6b72576019ccef9")
      << "warm, bimodal";
}

}  // namespace
}  // namespace sce::uarch
