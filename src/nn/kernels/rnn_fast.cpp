// Fast Elman RNN: the concrete instantiation of rnn_fast.hpp's loop nest.
#include "nn/kernels/rnn_fast.hpp"

#include "nn/kernels/registry.hpp"
#include "nn/kernels/simd.hpp"

namespace sce::nn::kernels {

void rnn_fast(const RnnShape& s, KernelMode mode) {
  FastDomain d;
  fast_kernel(d, s, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"elman-rnn", KernelMode::kDataDependent, ExecutionPath::kFast,
     "vectorized AXPY sweeps, scalar row-skip branches kept, blend ReLU"},
    {"elman-rnn", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "vectorized AXPY sweeps, every row streamed, blend ReLU"},
};
}  // namespace

}  // namespace sce::nn::kernels
