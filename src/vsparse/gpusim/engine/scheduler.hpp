// CTA -> SM assignment and SM -> worker distribution.
//
// The assignment is round-robin: SM s runs CTAs s, s + num_sms, ... (its
// first_cta() then steps of cta_stride()), to completion, in increasing
// launch order.  That per-SM order is the determinism contract: an
// SM's L1, shared-memory arena, and counter block see the identical
// access sequence regardless of how many host threads execute the SM
// array, so functional results and per-SM counters are bit-exact for
// any thread count.
//
// Workers claim whole SMs from an atomic cursor, once per epoch of the
// launch (dynamic load balancing across imbalanced SMs); claiming order
// never affects which CTAs an SM runs or their order, only which worker
// runs them.
#pragma once

#include <atomic>

#include "vsparse/common/macros.hpp"

namespace vsparse::gpusim {

class Scheduler {
 public:
  Scheduler(int grid, int num_sms) : grid_(grid), num_sms_(num_sms) {
    VSPARSE_DCHECK(grid >= 1 && num_sms >= 1);
  }

  int grid() const { return grid_; }
  int num_sms() const { return num_sms_; }

  /// SMs that receive at least one CTA under round-robin.
  int num_active_sms() const { return grid_ < num_sms_ ? grid_ : num_sms_; }

  /// First CTA of an SM's list; subsequent CTAs follow at cta_stride().
  int first_cta(int sm) const { return sm; }
  int cta_stride() const { return num_sms_; }

  /// Claim the next unexecuted SM (workers call this in a loop until
  /// it returns -1).  Thread-safe; each active SM is handed out once
  /// per epoch.
  int next_sm() {
    const int sm = cursor_.fetch_add(1, std::memory_order_relaxed);
    return sm < num_active_sms() ? sm : -1;
  }

  /// Start a new epoch: every active SM can be claimed again.  Called
  /// by the launching thread while no worker runs.
  void rewind() { cursor_.store(0, std::memory_order_relaxed); }

 private:
  int grid_;
  int num_sms_;
  std::atomic<int> cursor_{0};
};

}  // namespace vsparse::gpusim
