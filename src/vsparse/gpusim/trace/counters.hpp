// Counter registry: the single definition site for every KernelStats
// counter.  Each entry carries the stable export key, a description,
// the unit, determinism class, and enough pretty-print metadata to
// reproduce KernelStats' historical text dump byte for byte — so
// merge, equality, JSON export, and pretty-print are all
// *derived* from this table and a counter added here can never
// silently miss an exporter.
//
// Coverage is enforced structurally: KernelStats is exactly
// `kNumCounters` uint64 fields, and the static_assert below fails the
// build the moment a field is added to KernelStats without a matching
// registry row (or vice versa).  A unit test additionally checks that
// the 37 accessors hit 37 distinct fields (exactly-once, not just
// exactly-enough).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

#include "vsparse/gpusim/stats.hpp"

namespace vsparse::gpusim {

/// Pretty-print groups, in output order.  Each group is one labelled
/// clause of the historical KernelStats dump; `prefix` is the literal
/// text that precedes the group header ("\n" = new line, "  " = same
/// line as the previous group).
enum class CounterGroup : std::int8_t {
  kHidden = -1,    ///< counted/merged/exported but absent from the text dump
  kInstructions,   ///< "instructions:" (zero-valued entries omitted)
  kLdgWidths,      ///< "ldg widths:"
  kGlobal,         ///< "global:" (+ derived sectors/req)
  kL1,             ///< "L1:"
  kL2,             ///< "  L2:" — same line as L1
  kDram,           ///< "  DRAM" — same line as L1/L2
  kSmem,           ///< "smem:"
  kLaunch,         ///< "launch:"
  kFaults,         ///< "faults:" — whole group omitted when all zero
  kNumGroups
};

struct CounterDef {
  const char* name;   ///< stable snake_case export key ("inst_hmma", "ldg16")
  const char* desc;   ///< one-line description
  const char* unit;   ///< "inst" | "requests" | "sectors" | "bytes" | ...
  CounterGroup group;
  const char* label;   ///< pretty-print label within the group ("HMMA", "rd")
  const char* suffix;  ///< printed right after the value ("B" for DRAM bytes)
  bool skip_zero;      ///< omit from pretty-print when the value is zero
  bool sm_local;       ///< false for the four counters that depend on
                       ///< the L2's history (L2 hit/miss split, DRAM
                       ///< bytes); see KernelStats::sm_local_equal
  int op;              ///< >= 0: this counter is ops[op]
  std::uint64_t KernelStats::* member;  ///< used when op < 0
};

inline constexpr int kNumCounters = kNumOps + 24;  // 13 ops + 24 scalars = 37

// KernelStats must be a plain block of kNumCounters uint64 fields; if
// this fires, a field was added/removed without updating the registry.
static_assert(sizeof(KernelStats) ==
                  static_cast<std::size_t>(kNumCounters) *
                      sizeof(std::uint64_t),
              "KernelStats and the counter registry are out of sync: add "
              "the new field to counter_registry() in trace/counters.cpp");

/// The registry, in KernelStats declaration order.
const std::array<CounterDef, kNumCounters>& counter_registry();

std::uint64_t counter_value(const KernelStats& s, const CounterDef& def);
std::uint64_t& counter_ref(KernelStats& s, const CounterDef& def);

/// Derived metrics — computed from counters, never merged.  Exactly one
/// of {ival, fval} is non-null.
struct DerivedDef {
  const char* name;
  const char* desc;
  const char* unit;
  CounterGroup group;  ///< kHidden unless part of the historical dump
  const char* label;
  std::uint64_t (*ival)(const KernelStats&);
  double (*fval)(const KernelStats&);
};

inline constexpr int kNumDerived = 5;
const std::array<DerivedDef, kNumDerived>& derived_registry();

// ---- registry-driven operations (the implementations KernelStats'
// ---- own methods forward to) ------------------------------------------

/// dst[c] += src[c] for every counter.
void counters_accumulate(KernelStats& dst, const KernelStats& src);

/// Equality over all counters / over the sm_local subset only.
bool counters_equal(const KernelStats& a, const KernelStats& b);
bool counters_sm_local_equal(const KernelStats& a, const KernelStats& b);

/// The historical KernelStats text dump, byte-identical to the
/// hand-written formatter this registry replaced.
void counters_print(std::ostream& os, const KernelStats& s);

/// Flat JSON object: every registry counter (stable keys, declaration
/// order) followed by a "derived" sub-object.  `indent` spaces prefix
/// each line; emits no trailing newline.
void counters_json(std::ostream& os, const KernelStats& s, int indent = 0);

}  // namespace vsparse::gpusim
