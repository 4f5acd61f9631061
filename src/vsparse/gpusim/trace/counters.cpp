#include "vsparse/gpusim/trace/counters.hpp"

#include <cstdio>
#include <ostream>

namespace vsparse::gpusim {

namespace {

using CG = CounterGroup;
using KS = KernelStats;

constexpr CounterDef op_def(const char* name, int op, const char* label,
                            const char* desc) {
  return CounterDef{name, desc,  "inst", CG::kInstructions, label,
                    "",   true,  true,   op,                nullptr};
}

constexpr CounterDef scalar_def(const char* name, std::uint64_t KS::* member,
                                CG group, const char* label, const char* unit,
                                const char* desc, bool sm_local = true,
                                const char* suffix = "") {
  return CounterDef{name,   desc,  unit,     group, label,
                    suffix, false, sm_local, -1,    member};
}

constexpr std::array<CounterDef, kNumCounters> kRegistry = {{
    // --- executed instructions (warp level) ---------------------------
    op_def("inst_hmma", 0, "HMMA", "HMMA.884 tensor-core steps"),
    op_def("inst_hfma", 1, "HFMA", "HFMA2/HMUL fp16 FPU math"),
    op_def("inst_ffma", 2, "FFMA", "FFMA/FADD/FMUL fp32 FPU math"),
    op_def("inst_imad", 3, "IMAD", "integer multiply-add (addresses)"),
    op_def("inst_iadd3", 4, "IADD3", "3-input integer adds"),
    op_def("inst_ldg", 5, "LDG", "global loads (any width)"),
    op_def("inst_stg", 6, "STG", "global stores"),
    op_def("inst_lds", 7, "LDS", "shared-memory loads"),
    op_def("inst_sts", 8, "STS", "shared-memory stores"),
    op_def("inst_shfl", 9, "SHFL", "warp shuffles"),
    op_def("inst_bar", 10, "BAR", "barriers / memory fences"),
    op_def("inst_cvt", 11, "CVT", "precision conversions"),
    op_def("inst_misc", 12, "MISC", "predicates, branches, moves"),
    // --- global-load width histogram -----------------------------------
    scalar_def("ldg16", &KS::ldg16, CG::kLdgWidths, "16b", "inst",
               "16-bit per-thread global loads"),
    scalar_def("ldg32", &KS::ldg32, CG::kLdgWidths, "32b", "inst",
               "LDG.32 global loads"),
    scalar_def("ldg64", &KS::ldg64, CG::kLdgWidths, "64b", "inst",
               "LDG.64 global loads"),
    scalar_def("ldg128", &KS::ldg128, CG::kLdgWidths, "128b", "inst",
               "LDG.128 global loads"),
    // --- global memory traffic ------------------------------------------
    scalar_def("global_load_requests", &KS::global_load_requests, CG::kGlobal,
               "load_req", "requests", "warp-level LDG requests"),
    scalar_def("global_load_sectors", &KS::global_load_sectors, CG::kGlobal,
               "load_sectors", "sectors", "32 B sectors touched by loads"),
    scalar_def("global_store_requests", &KS::global_store_requests,
               CG::kGlobal, "store_req", "requests",
               "warp-level STG requests"),
    scalar_def("global_store_sectors", &KS::global_store_sectors, CG::kGlobal,
               "store_sectors", "sectors", "32 B sectors touched by stores"),
    scalar_def("l1_sector_hits", &KS::l1_sector_hits, CG::kL1, "hits",
               "sectors", "sectors served by L1"),
    scalar_def("l1_sector_misses", &KS::l1_sector_misses, CG::kL1, "misses",
               "sectors", "L1 missed sectors (Fig. 5)"),
    scalar_def("l2_sector_hits", &KS::l2_sector_hits, CG::kL2, "hits",
               "sectors", "sectors served by L2",
               /*sm_local=*/false),
    scalar_def("l2_sector_misses", &KS::l2_sector_misses, CG::kL2, "misses",
               "sectors", "L2 missed sectors",
               /*sm_local=*/false),
    scalar_def("dram_read_bytes", &KS::dram_read_bytes, CG::kDram, "rd",
               "bytes", "bytes read from DRAM",
               /*sm_local=*/false, "B"),
    scalar_def("dram_write_bytes", &KS::dram_write_bytes, CG::kDram, "wr",
               "bytes", "bytes written to DRAM",
               /*sm_local=*/false, "B"),
    // --- shared memory ---------------------------------------------------
    scalar_def("smem_load_requests", &KS::smem_load_requests, CG::kSmem,
               "ld_req", "requests", "warp-level LDS requests"),
    scalar_def("smem_store_requests", &KS::smem_store_requests, CG::kSmem,
               "st_req", "requests", "warp-level STS requests"),
    scalar_def("smem_load_bytes", &KS::smem_load_bytes, CG::kHidden, "",
               "bytes", "bytes loaded from shared memory"),
    scalar_def("smem_store_bytes", &KS::smem_store_bytes, CG::kHidden, "",
               "bytes", "bytes stored to shared memory"),
    scalar_def("smem_wavefronts", &KS::smem_wavefronts, CG::kSmem,
               "wavefronts", "wavefronts",
               "bank-conflict-expanded smem accesses"),
    // --- launch shape ------------------------------------------------------
    scalar_def("ctas_launched", &KS::ctas_launched, CG::kLaunch, "ctas",
               "ctas", "CTAs executed by the launch"),
    scalar_def("warps_launched", &KS::warps_launched, CG::kLaunch, "warps",
               "warps", "warps executed by the launch"),
    // --- fault injection ---------------------------------------------------
    scalar_def("faults_injected", &KS::faults_injected, CG::kFaults,
               "injected", "faults", "upsets applied to read data"),
    scalar_def("faults_masked", &KS::faults_masked, CG::kFaults, "masked",
               "faults", "ECC-corrected single-bit upsets"),
    scalar_def("faults_detected", &KS::faults_detected, CG::kFaults,
               "detected", "faults", "ECC double-bit detections"),
}};

std::uint64_t d_total_instructions(const KernelStats& s) {
  return s.total_instructions();
}
std::uint64_t d_math_instructions(const KernelStats& s) {
  return s.math_instructions();
}
std::uint64_t d_bytes_l2_to_l1(const KernelStats& s) {
  return s.bytes_l2_to_l1();
}
double d_sectors_per_request(const KernelStats& s) {
  return s.sectors_per_request();
}
double d_smem_to_global_load_ratio(const KernelStats& s) {
  return s.smem_to_global_load_ratio();
}

constexpr std::array<DerivedDef, kNumDerived> kDerived = {{
    {"total_instructions", "executed warp instructions, all classes", "inst",
     CG::kHidden, "", &d_total_instructions, nullptr},
    {"math_instructions", "HMMA + HFMA + FFMA (Fig. 5 right panel)", "inst",
     CG::kHidden, "", &d_math_instructions, nullptr},
    {"bytes_l2_to_l1", "L1 missed sectors * 32 B (Fig. 18)", "bytes",
     CG::kHidden, "", &d_bytes_l2_to_l1, nullptr},
    {"sectors_per_request", "avg sectors per global load (Tables 2-3)",
     "sectors/req", CG::kGlobal, "sectors/req", nullptr,
     &d_sectors_per_request},
    {"smem_to_global_load_ratio", "smem / global load requests (3.2)",
     "ratio", CG::kHidden, "", nullptr, &d_smem_to_global_load_ratio},
}};

/// Pretty-print layout per group: the literal text before the header
/// ("\n" = next line, "  " = same line) and the header itself.
struct GroupLayout {
  const char* prefix;
  const char* header;
  bool hide_when_all_zero;
};

constexpr GroupLayout kGroups[static_cast<int>(CG::kNumGroups)] = {
    {"", "instructions:", false},  // kInstructions
    {"\n", "ldg widths:", false},  // kLdgWidths
    {"\n", "global:", false},      // kGlobal
    {"\n", "L1:", false},          // kL1
    {"  ", "L2:", false},          // kL2
    {"  ", "DRAM", false},         // kDram
    {"\n", "smem:", false},        // kSmem
    {"\n", "launch:", false},      // kLaunch
    {"\n", "faults:", true},       // kFaults
};

void json_number(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

const std::array<CounterDef, kNumCounters>& counter_registry() {
  return kRegistry;
}

std::uint64_t counter_value(const KernelStats& s, const CounterDef& def) {
  return def.op >= 0 ? s.ops[def.op] : s.*(def.member);
}

std::uint64_t& counter_ref(KernelStats& s, const CounterDef& def) {
  return def.op >= 0 ? s.ops[def.op] : s.*(def.member);
}

const std::array<DerivedDef, kNumDerived>& derived_registry() {
  return kDerived;
}

void counters_accumulate(KernelStats& dst, const KernelStats& src) {
  for (const CounterDef& def : kRegistry) {
    counter_ref(dst, def) += counter_value(src, def);
  }
}

bool counters_equal(const KernelStats& a, const KernelStats& b) {
  for (const CounterDef& def : kRegistry) {
    if (counter_value(a, def) != counter_value(b, def)) return false;
  }
  return true;
}

bool counters_sm_local_equal(const KernelStats& a, const KernelStats& b) {
  for (const CounterDef& def : kRegistry) {
    if (!def.sm_local) continue;
    if (counter_value(a, def) != counter_value(b, def)) return false;
  }
  return true;
}

void counters_print(std::ostream& os, const KernelStats& s) {
  for (int g = 0; g < static_cast<int>(CG::kNumGroups); ++g) {
    const GroupLayout& layout = kGroups[g];
    const CG group = static_cast<CG>(g);
    if (layout.hide_when_all_zero) {
      bool any = false;
      for (const CounterDef& def : kRegistry) {
        if (def.group == group && counter_value(s, def) != 0) any = true;
      }
      if (!any) continue;
    }
    os << layout.prefix << layout.header;
    for (const CounterDef& def : kRegistry) {
      if (def.group != group) continue;
      const std::uint64_t v = counter_value(s, def);
      if (def.skip_zero && v == 0) continue;
      os << ' ' << def.label << '=' << v << def.suffix;
    }
    for (const DerivedDef& def : kDerived) {
      if (def.group != group) continue;
      os << ' ' << def.label << '=';
      if (def.ival != nullptr) {
        os << def.ival(s);
      } else {
        os << def.fval(s);
      }
    }
  }
}

void counters_json(std::ostream& os, const KernelStats& s, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n";
  for (const CounterDef& def : kRegistry) {
    os << pad << "  \"" << def.name << "\": " << counter_value(s, def)
       << ",\n";
  }
  os << pad << "  \"derived\": {";
  bool first = true;
  for (const DerivedDef& def : kDerived) {
    os << (first ? "\n" : ",\n") << pad << "    \"" << def.name << "\": ";
    if (def.ival != nullptr) {
      os << def.ival(s);
    } else {
      json_number(os, def.fval(s));
    }
    first = false;
  }
  os << '\n' << pad << "  }\n" << pad << '}';
}

}  // namespace vsparse::gpusim
