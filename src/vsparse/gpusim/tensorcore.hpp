// Tensor Core Unit model.
//
// Implements the Volta octet-level `mma.m8n8k4` exactly as the paper
// describes it (§2.1, Fig. 2): a warp executes four (8x4)·(4x8) matrix
// multiplications, one per octet, decomposed into the four HMMA steps
//
//   STEP 0: A rows held by the LOW  group x B cols of the LOW  group
//           -> output columns 0..3 of the low-group accumulators
//   STEP 1: A rows held by the HIGH group x B cols of the LOW  group
//           -> output columns 0..3 of the high-group accumulators
//   STEP 2: low  rows x HIGH-group B cols -> output columns 4..7 (low)
//   STEP 3: high rows x HIGH-group B cols -> output columns 4..7 (high)
//
// Fragment register layout used by this model (documented contract —
// our kernels both produce and consume it):
//   * Octet o = thread group o (lanes 4o..4o+3, the LOW group) plus
//     thread group o+4 (lanes 16+4o..16+4o+3, the HIGH group).
//   * A fragment: the j-th lane of the low group holds row j of the
//     octet's 8x4 A tile (4 halves); the j-th lane of the high group
//     holds row 4+j.
//   * B fragment: same layout over the columns of the 4x8 B tile.
//   * C fragment: the lane holding A row i accumulates row i of the
//     8x8 output (8 floats, fp32 accumulation).
//
// The SWITCH extension (§6.3, Fig. 15): when `switch_groups` is set,
// the Mat_a buffer sources of thread groups i and i+4 are exchanged and
// the Mat_b multiplexer control is XOR-ed — operationally, the low and
// high halves of both source fragments are swapped before the four
// steps execute (accumulators stay put).  This is the
// HMMA.884.F32.F32.STEP{0-3}.SWITCH instruction the paper proposes; the
// simulator charges it the same four HMMA issue slots but no extra
// SHFLs or registers, which is exactly the benefit claimed.
//
// `step_mask` models the §5.3 future-work optimization of removing
// STEP 2&3 from the SASS when V <= 4 (the paper could not do this for
// lack of an assembler, §7.1.3; we expose it for the ablation bench).
#pragma once

#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/engine/cta.hpp"

// The MMA ops are Warp methods (`Warp::mma_m8n8k4`,
// `Warp::wmma_m8n32k16` in engine/cta.hpp) so that `Warp` is the single
// entry point for every warp-level operation.  The fragment types
// (MmaFragAB, MmaFragC, MmaFlags) live beside them.  The per-thread
// fragment layouts of Figs. 10/13 live in the *kernels'* load code
// (that is where they constrain memory coalescing); the WMMA op
// consumes the assembled logical tiles.
