// Residual add on half-precision row-major activations, the one
// element-wise kernel.  It streams with LDG.128/STG.128 (guideline V):
// each CTA is one warp and handles 256 elements per pass, 8 passes.
// transformer/ does not call it (fig20's "Others" are the projection
// GEMMs); perfbench times a one-CTA launch of it as its launch floor.
#pragma once

#include "vsparse/formats/dense.hpp"
#include "vsparse/kernels/api.hpp"

namespace vsparse::kernels {

/// x <- x + y (same shape).  Element count % 8 == 0.
KernelRun residual_add(gpusim::Device& dev, DenseDevice<half_t>& x,
                       const DenseDevice<half_t>& y);

}  // namespace vsparse::kernels
