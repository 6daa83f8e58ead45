// A witness site for a hand-written symbolic model in a test.
//
// SCE_SYM_SITE(label) names this file and line.  Library kernels use
// SCE_KERNEL_SITE (nn/kernels/domain.hpp), which also yields the branch
// predictor's pc; a test's custom layer or engine-level arm needs only
// the witness.
#pragma once

#include "nn/kernels/symbolic.hpp"

#define SCE_SYM_SITE(label) \
  (::sce::nn::kernels::SymSite{__FILE__, __LINE__, (label)})
