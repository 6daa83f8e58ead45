// Pinned instrumented event streams.
//
// The trace oracle compares probes against each other and the bench
// digest only sums event counts, so neither notices a kernel that emits
// the same multiset of events in a different order.  This test records
// every instrumented (op, mode) cell on the fixed default_probes inputs
// and compares a digest of the full event stream against a constant.
// Addresses and branch pcs are renamed by first appearance, so the digest
// survives relocation (another allocator, another binary) but not a
// reordering, a dropped event or a changed retire amount.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/oracle.hpp"
#include "nn/activation.hpp"
#include "nn/avgpool.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/rnn.hpp"
#include "nn/shape_ops.hpp"
#include "uarch/trace.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sce::nn {
namespace {

using uarch::RecordingSink;

/// Dense renaming of raw values (addresses or pcs) by first appearance.
class FirstSeen {
 public:
  std::uint64_t operator()(std::uintptr_t raw) {
    return ids_.try_emplace(raw, ids_.size()).first->second;
  }

 private:
  std::unordered_map<std::uintptr_t, std::uint64_t> ids_;
};

void append_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

/// Every probe is staged through one input tensor, one output tensor and
/// one workspace, so a buffer keeps its address across probes and the
/// renaming stays consistent over the whole stream.
std::string trace_digest(const Layer& layer,
                         const std::vector<std::size_t>& shape,
                         KernelMode mode) {
  Tensor input(shape);
  Tensor output;
  Workspace workspace;
  RecordingSink sink;
  FirstSeen addresses;
  FirstSeen pcs;
  std::string bytes;
  for (const Tensor& probe : analysis::default_probes(shape)) {
    std::memcpy(input.data(), probe.data(), probe.numel() * sizeof(float));
    sink.clear();
    layer.forward_into(input, output, workspace, sink, mode,
                       ExecutionPath::kInstrumented);
    for (const RecordingSink::Event& e : sink.events()) {
      bytes.push_back(static_cast<char>(e.kind));
      switch (e.kind) {
        case RecordingSink::Kind::kLoad:
        case RecordingSink::Kind::kStore:
          append_u64(bytes, addresses(e.address));
          break;
        case RecordingSink::Kind::kBranch:
          append_u64(bytes, pcs(e.address));
          break;
        default:
          break;
      }
      append_u64(bytes, e.value);
    }
  }
  return util::content_digest_hex(bytes);
}

struct PinnedCell {
  const char* op;
  std::unique_ptr<Layer> layer;
  std::vector<std::size_t> shape;
  const char* data_dependent;
  const char* constant_flow;
};

std::vector<PinnedCell> pinned_cells() {
  auto direct = std::make_unique<Conv2D>(2, 3, 3, /*stride=*/1,
                                         /*padding=*/1);
  auto im2col = std::make_unique<Conv2D>(2, 3, 3, /*stride=*/1,
                                         /*padding=*/1);
  im2col->set_algorithm(ConvAlgorithm::kIm2col);

  std::vector<PinnedCell> cells;
  cells.push_back({"conv2d.direct", std::move(direct), {2, 6, 6},
                   "016998791bf222983c3ebcd8c862c20d",
                   "d30e64d1ff634585baec72a17324738f"});
  cells.push_back({"conv2d.im2col", std::move(im2col), {2, 6, 6},
                   "2da216375cd6651509ef3fc86ef6b294",
                   "a1a7f0035aaa40c5809ba3974e58848f"});
  cells.push_back({"dense", std::make_unique<Dense>(24, 10), {24},
                   "ddfb877f1b32daf39ad0dc19f98ae00d",
                   "0d217bf07a937c457c9321c11a0874d7"});
  cells.push_back({"relu", std::make_unique<ReLU>(), {2, 5, 5},
                   "be4e2494e389e62efc5adf190d7c545c",
                   "b94b08650b7f4e51794bdadd21c4e17f"});
  cells.push_back({"maxpool2d", std::make_unique<MaxPool2D>(2), {2, 6, 6},
                   "750aafbda6e91f2c72f11538913f2706",
                   "ffea5987554acde5639dbc5e64726fff"});
  // AvgPool and Softmax have no data-dependent shortcut: both modes run
  // the same code, so their two digests coincide.
  cells.push_back({"avgpool2d", std::make_unique<AvgPool2D>(2), {2, 6, 6},
                   "dc0a00a838712db5b0fd55cd151f5247",
                   "dc0a00a838712db5b0fd55cd151f5247"});
  cells.push_back({"softmax", std::make_unique<Softmax>(), {10},
                   "f4eacfbfcd29f285096b50875f9ff35b",
                   "f4eacfbfcd29f285096b50875f9ff35b"});
  cells.push_back({"elman-rnn", std::make_unique<ElmanRNN>(4, 6), {1, 5, 4},
                   "a3559eb8f4ff27e18a37846a9ddf4df5",
                   "fabaf77d38ec4ab51f2bd132102eabb7"});
  util::Rng rng(11);
  for (PinnedCell& cell : cells) cell.layer->initialize(rng);
  return cells;
}

TEST(KernelTrace, EventStreamsArePinned) {
  for (const PinnedCell& cell : pinned_cells()) {
    EXPECT_EQ(trace_digest(*cell.layer, cell.shape,
                           KernelMode::kDataDependent),
              cell.data_dependent)
        << cell.op << " (data-dependent)";
    EXPECT_EQ(trace_digest(*cell.layer, cell.shape,
                           KernelMode::kConstantFlow),
              cell.constant_flow)
        << cell.op << " (constant-flow)";
  }
}

}  // namespace
}  // namespace sce::nn
