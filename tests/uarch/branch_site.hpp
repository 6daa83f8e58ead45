// A pseudo-PC for a branch in a hand-written test kernel.
//
// SCE_BRANCH_SITE() is the address of a function-local static: unique per
// expansion and stable within a binary, which is all a test sink needs.
// Library kernels use SCE_KERNEL_SITE (nn/kernels/domain.hpp) instead: an
// address-of-static pc differs between the instantiations of a function
// template, so the same site would train different predictor entries on
// different paths.  Expand this macro only in non-template code.
#pragma once

#include <cstdint>

#define SCE_BRANCH_SITE()                                  \
  ([]() -> std::uintptr_t {                                \
    static const char site_anchor = 0;                     \
    return reinterpret_cast<std::uintptr_t>(&site_anchor); \
  }())
