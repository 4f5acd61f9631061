#include "vsparse/gpusim/sanitizer/shadow.hpp"

#include <algorithm>
#include <sstream>

#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {

SmSanitizer::SmSanitizer(int sm_id, const SanitizerOptions& opts,
                         const std::vector<AllocRecord>* allocs,
                         std::size_t smem_bytes)
    : sm_id_(sm_id),
      opts_(opts),
      allocs_(allocs),
      smem_bytes_(smem_bytes) {}

void SmSanitizer::on_cta_begin(int cta_id, int num_warps) {
  if (gen_ == UINT32_MAX) {
    // Generation wrap (4B CTAs on one SM): hard-clear so stale records
    // cannot alias the restarted counter.
    std::fill(shadow_.begin(), shadow_.end(), ByteShadow{});
    gen_ = 0;
  }
  ++gen_;
  cta_id_ = cta_id;
  cta_op_ = 0;
  arrivals_.assign(static_cast<std::size_t>(num_warps), 0);
}

void SmSanitizer::on_cta_end() {
  if (!opts_.sync || arrivals_.empty()) return;
  const auto [min_it, max_it] =
      std::minmax_element(arrivals_.begin(), arrivals_.end());
  if (*min_it == *max_it) return;
  SanitizerReport r;
  r.kind = HazardKind::kBarrierMismatch;
  r.epoch = *max_it;
  r.first = HazardSite{
      static_cast<std::int32_t>(max_it - arrivals_.begin()), Op::kBar, 0};
  r.second = HazardSite{
      static_cast<std::int32_t>(min_it - arrivals_.begin()), Op::kBar, 0};
  std::ostringstream os;
  os << "warps left the CTA with unequal barrier counts: warp "
     << r.first.warp << " arrived " << *max_it << "x, warp " << r.second.warp
     << " arrived " << *min_it << 'x';
  r.detail = os.str();
  deliver(std::move(r));
}

void SmSanitizer::on_cta_sync() {
  ++cta_op_;
  for (std::uint32_t& a : arrivals_) ++a;
}

void SmSanitizer::on_bar_arrive(int warp, std::uint32_t mask) {
  const std::uint64_t site = ++cta_op_;
  const auto w = static_cast<std::size_t>(warp);
  if (w >= arrivals_.size()) return;  // engine guards this; stay safe
  if (opts_.sync && mask != kFullMask) {
    SanitizerReport r;
    r.kind = HazardKind::kDivergentBarrier;
    r.epoch = arrivals_[w];
    r.second = HazardSite{warp, Op::kBar, site};
    std::ostringstream os;
    os << "bar_sync executed under partial lane mask 0x" << std::hex << mask;
    r.detail = os.str();
    deliver(std::move(r));
  }
  ++arrivals_[w];
}

namespace {

/// First-offending-byte aggregation for one warp op: a single op that
/// touches many bad bytes yields one report per hazard kind.
struct Agg {
  bool hit = false;
  std::uint64_t addr = 0;
  std::uint32_t count = 0;
  HazardSite first;

  void note(std::uint64_t a, const HazardSite& site) {
    if (!hit) {
      hit = true;
      addr = a;
      first = site;
    }
    ++count;
  }
};

}  // namespace

void SmSanitizer::on_smem_load(int warp, const Lanes<std::uint32_t>& off,
                               std::uint32_t mask, std::uint32_t len) {
  // The shadow is allocated on this SM's first shared-memory op: an SM
  // whose CTAs never touch shared memory never pays for it.
  if (shadow_.empty()) shadow_.resize(smem_bytes_);
  const std::uint64_t site = ++cta_op_;
  const std::uint32_t epoch =
      static_cast<std::size_t>(warp) < arrivals_.size()
          ? arrivals_[static_cast<std::size_t>(warp)]
          : 0;
  Agg oob, uninit, raw;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint64_t o = off[static_cast<std::size_t>(lane)];
    if (o + len > smem_bytes_) {
      oob.note(o, HazardSite{});
      continue;
    }
    for (std::uint64_t b = o; b < o + len; ++b) {
      ByteShadow& sh = shadow_[b];
      const bool this_cta = sh.gen == gen_;
      if (!this_cta || sh.w_warp < 0) {
        uninit.note(b, HazardSite{});
      } else if (sh.w_warp != warp && sh.w_epoch == epoch) {
        raw.note(b, HazardSite{sh.w_warp, sh.w_op, sh.w_site});
      }
      if (!this_cta) {
        sh = ByteShadow{};
        sh.gen = gen_;
      }
      sh.r_warp = static_cast<std::int16_t>(warp);
      sh.r_epoch = epoch;
      sh.r_site = site;
      sh.r_op = Op::kLds;
    }
  }
  const HazardSite reader{warp, Op::kLds, site};
  if (oob.hit && opts_.bounds) {
    SanitizerReport r;
    r.kind = HazardKind::kSmemOob;
    r.addr = oob.addr;
    r.bytes = oob.count;
    r.epoch = epoch;
    r.second = reader;
    std::ostringstream os;
    os << "lds." << len * 8 << " at offset " << oob.addr
       << " exceeds smem_bytes=" << smem_bytes_;
    r.detail = os.str();
    deliver(std::move(r));
  }
  if (uninit.hit && opts_.init) {
    SanitizerReport r;
    r.kind = HazardKind::kUninitSmemRead;
    r.addr = uninit.addr;
    r.bytes = uninit.count;
    r.epoch = epoch;
    r.second = reader;
    std::ostringstream os;
    os << uninit.count << "B read that no sts wrote this CTA";
    r.detail = os.str();
    deliver(std::move(r));
  }
  if (raw.hit && opts_.race) {
    SanitizerReport r;
    r.kind = HazardKind::kRawRace;
    r.addr = raw.addr;
    r.bytes = raw.count;
    r.epoch = epoch;
    r.first = raw.first;
    r.second = reader;
    std::ostringstream os;
    os << "lds overlaps an sts from warp " << raw.first.warp
       << " in the same barrier epoch " << epoch;
    r.detail = os.str();
    deliver(std::move(r));
  }
}

void SmSanitizer::on_smem_store(int warp, const Lanes<std::uint32_t>& off,
                                std::uint32_t mask, std::uint32_t len) {
  if (shadow_.empty()) shadow_.resize(smem_bytes_);
  const std::uint64_t site = ++cta_op_;
  const std::uint32_t epoch =
      static_cast<std::size_t>(warp) < arrivals_.size()
          ? arrivals_[static_cast<std::size_t>(warp)]
          : 0;
  Agg oob, waw, war;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint64_t o = off[static_cast<std::size_t>(lane)];
    if (o + len > smem_bytes_) {
      oob.note(o, HazardSite{});
      continue;
    }
    for (std::uint64_t b = o; b < o + len; ++b) {
      ByteShadow& sh = shadow_[b];
      const bool this_cta = sh.gen == gen_;
      if (this_cta && sh.w_warp >= 0 && sh.w_warp != warp &&
          sh.w_epoch == epoch) {
        waw.note(b, HazardSite{sh.w_warp, sh.w_op, sh.w_site});
      }
      if (this_cta && sh.r_warp >= 0 && sh.r_warp != warp &&
          sh.r_epoch == epoch) {
        war.note(b, HazardSite{sh.r_warp, sh.r_op, sh.r_site});
      }
      if (!this_cta) {
        sh = ByteShadow{};
        sh.gen = gen_;
      }
      sh.w_warp = static_cast<std::int16_t>(warp);
      sh.w_epoch = epoch;
      sh.w_site = site;
      sh.w_op = Op::kSts;
    }
  }
  const HazardSite writer{warp, Op::kSts, site};
  if (oob.hit && opts_.bounds) {
    SanitizerReport r;
    r.kind = HazardKind::kSmemOob;
    r.addr = oob.addr;
    r.bytes = oob.count;
    r.epoch = epoch;
    r.second = writer;
    std::ostringstream os;
    os << "sts." << len * 8 << " at offset " << oob.addr
       << " exceeds smem_bytes=" << smem_bytes_;
    r.detail = os.str();
    deliver(std::move(r));
  }
  if (waw.hit && opts_.race) {
    SanitizerReport r;
    r.kind = HazardKind::kWawRace;
    r.addr = waw.addr;
    r.bytes = waw.count;
    r.epoch = epoch;
    r.first = waw.first;
    r.second = writer;
    std::ostringstream os;
    os << "sts overwrites an sts from warp " << waw.first.warp
       << " in the same barrier epoch " << epoch;
    r.detail = os.str();
    deliver(std::move(r));
  }
  if (war.hit && opts_.race) {
    SanitizerReport r;
    r.kind = HazardKind::kWarRace;
    r.addr = war.addr;
    r.bytes = war.count;
    r.epoch = epoch;
    r.first = war.first;
    r.second = writer;
    std::ostringstream os;
    os << "sts overwrites bytes warp " << war.first.warp
       << " read in the same barrier epoch " << epoch;
    r.detail = os.str();
    deliver(std::move(r));
  }
}

void SmSanitizer::on_global_load(int warp, const AddrLanes& addr,
                                 std::uint32_t mask, std::uint32_t len) {
  ++cta_op_;
  if (opts_.bounds || opts_.init) check_global(warp, addr, mask, len, Op::kLdg);
}

void SmSanitizer::on_global_store(int warp, const AddrLanes& addr,
                                  std::uint32_t mask, std::uint32_t len) {
  ++cta_op_;
  if (opts_.bounds || opts_.init) check_global(warp, addr, mask, len, Op::kStg);
}

const AllocRecord* SmSanitizer::find_alloc(std::uint64_t addr) const {
  const std::vector<AllocRecord>& a = *allocs_;
  auto it = std::upper_bound(
      a.begin(), a.end(), addr,
      [](std::uint64_t v, const AllocRecord& rec) { return v < rec.addr; });
  if (it == a.begin()) return nullptr;
  return &*std::prev(it);
}

void SmSanitizer::check_global(int warp, const AddrLanes& addr,
                               std::uint32_t mask, std::uint32_t len, Op op) {
  const std::uint32_t epoch =
      static_cast<std::size_t>(warp) < arrivals_.size()
          ? arrivals_[static_cast<std::size_t>(warp)]
          : 0;
  Agg oob, uaf;
  const AllocRecord* oob_near = nullptr;
  const AllocRecord* uaf_rec = nullptr;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint64_t a = addr[static_cast<std::size_t>(lane)];
    const AllocRecord* rec = find_alloc(a);
    // `slack` extends what counts as in-bounds for loads only: it is
    // the declared vector-load tail (Device::alloc), and a store past
    // `bytes` is out of bounds however much slack the buffer declares.
    if (rec == nullptr ||
        a + len > rec->addr + rec->bytes + (op == Op::kLdg ? rec->slack : 0)) {
      if (!oob.hit) oob_near = rec;
      oob.note(a, HazardSite{});
    } else if (!rec->live) {
      if (!uaf.hit) uaf_rec = rec;
      uaf.note(a, HazardSite{});
    }
  }
  const HazardSite site{warp, op, cta_op_};
  if (oob.hit && opts_.bounds) {
    SanitizerReport r;
    r.kind = HazardKind::kGlobalOob;
    r.addr = oob.addr;
    r.bytes = oob.count;
    r.epoch = epoch;
    r.second = site;
    std::ostringstream os;
    os << op_name(op) << '.' << len * 8 << " at device address " << oob.addr
       << " hits no allocation";
    if (oob_near != nullptr) {
      os << "; nearest below: '"
         << (oob_near->name.empty() ? "(unnamed)" : oob_near->name.c_str())
         << "' [" << oob_near->addr << ", " << oob_near->addr + oob_near->bytes
         << ')';
    }
    r.detail = os.str();
    deliver(std::move(r));
  }
  if (uaf.hit && opts_.init) {
    SanitizerReport r;
    r.kind = HazardKind::kGlobalUseAfterFree;
    r.addr = uaf.addr;
    r.bytes = uaf.count;
    r.epoch = epoch;
    r.second = site;
    std::ostringstream os;
    os << op_name(op) << '.' << len * 8 << " inside freed allocation '"
       << (uaf_rec->name.empty() ? "(unnamed)" : uaf_rec->name.c_str())
       << "' [" << uaf_rec->addr << ", " << uaf_rec->addr + uaf_rec->bytes
       << ')';
    r.detail = os.str();
    deliver(std::move(r));
  }
}

void SmSanitizer::deliver(SanitizerReport&& r) {
  r.sm = sm_id_;
  r.cta = cta_id_;
  if (!seen_.insert(key(r)).second) return;
  if (reports_.size() >= opts_.max_reports) {
    ++suppressed_;
    return;
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventKind::kSanitizer, cta_id_, r.second.warp,
                 static_cast<std::uint64_t>(r.tool()),
                 static_cast<std::uint64_t>(r.kind));
  }
  reports_.push_back(std::move(r));
}

}  // namespace vsparse::gpusim
