// ExecutionPath: the second axis of kernel dispatch, orthogonal to
// KernelMode.
//
// Every layer owns (up to) two implementations of each kernel mode:
//
//  * kInstrumented — the Sink-emitting reference loops.  These are the
//    leakage ground truth: every load/branch/retire they report is what
//    the trace oracle cross-validates and what campaigns measure.  An
//    observing sink runs them over the simulated machine by direct calls
//    when it is one (a SimulatedPmu), and through TraceSink's virtual
//    calls otherwise; both report the same events with the same site pcs
//    (domain.hpp).  With a discarding sink they instantiate over
//    DiscardSink, which compiles the trace calls away but keeps the
//    scalar loop structure — the "scalar planned path" the fast kernels
//    are benchmarked against.
//  * kFast — SIMD/blocked production-shaped kernels (im2col + tiled GEMM
//    for conv2d, register-blocked GEMV for dense, branch-free vectorized
//    activations).  They emit no trace events and are pinned bit-for-bit
//    to the instrumented outputs: per output element the same IEEE
//    operations execute in the same order (vectorization runs across
//    independent outputs, never across a reduction, and contraction is
//    disabled), so fast == instrumented is asserted with memcmp.
//
// Path selection is a safety invariant, not a hint: an observing sink
// (CountingSink, RecordingSink, a PMU adapter) always forces the
// instrumented path, so campaigns, sweeps and the trace oracle can never
// accidentally measure an untraced kernel.  The fast path is reachable
// only when the sink provably discards everything.
#pragma once

#include <string>

namespace sce::uarch {
class TraceSink;
}

namespace sce::nn {

enum class ExecutionPath { kInstrumented, kFast };

std::string to_string(ExecutionPath path);

namespace kernels {

/// The path that will actually execute when `requested` meets `sink`:
/// an observing sink wins over any request (instrumentation is never
/// silently dropped); a discarding sink honours the request.
ExecutionPath select_path(const uarch::TraceSink& sink,
                          ExecutionPath requested);

}  // namespace kernels
}  // namespace sce::nn
