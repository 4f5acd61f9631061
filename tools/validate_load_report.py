#!/usr/bin/env python3
"""Validate a vsparse-load-v2 serving load report.

Usage: validate_load_report.py FILE [--baseline=BENCH.json]
       [--expect-chaos] [--expect-device-chaos] [--expect-clean-verify]
       [--repro=REPRO.json]

Checks the JSON the serve_load driver writes (LoadResult::to_json):
schema tag, the per-tenant outcome accounting invariants
(submitted = completed + failed + rejected + shed_queue + shed_deadline
and completed = slo_met + deadline_miss, per tenant and in total, with
tenant sums matching the totals), latency percentile ordering
(p50 <= p99 <= max), chaos and device-chaos window sanity (begin < end,
known kinds), health event consistency (non-decreasing ticks, totals
matching the event list), the fleet section (placement arithmetic,
worker states, event kinds), the request ledger (exactly-once
accounting: every trace id appears exactly once with a terminal
outcome, and the outcome histogram reproduces the totals), and the
verify block.  With --repro the flight-recorder artifact is
cross-checked against the ledger: every captured bundle must belong to
a request that failed or was re-placed.  With --baseline the headline
numbers (goodput, final_tick, totals, health counters) must match the
committed BENCH_serve_load.json exactly — the report is deterministic,
so any drift is a real behavior change that needs a baseline refresh.
Stdlib only — runs anywhere CI has a python3.
"""
import sys

from vsparse_validate import check, check_schema, errors, load_json, \
    report_errors

SCHEMA = "vsparse-load-v2"
REPRO_SCHEMA = "vsparse-repro-v1"
CHAOS_KINDS = {"ecc_burst", "brownout", "mem_pressure"}
DEVICE_CHAOS_KINDS = {"wedge", "brownout", "flap", "death"}
EVENT_KINDS = {"quarantine", "half_open", "restore", "reopen"}
FLEET_EVENT_KINDS = {"probe", "dead", "drain", "drain_reopen", "restore",
                     "hedge", "hedge_cancel", "failover"}
WORKER_STATES = {"active", "draining", "dead"}
LEDGER_OUTCOMES = {"completed", "shed_queue", "shed_deadline", "rejected",
                   "failed"}
PLACEMENT_FIELDS = ("placements", "failovers", "migrated", "hedges",
                    "hedge_wins_secondary", "hedge_cancelled",
                    "hedges_unlaunched", "probes", "drains", "drain_reopens",
                    "restores", "devices_lost")
TENANT_COUNTS = ("submitted", "completed", "slo_met", "deadline_miss",
                 "shed_queue", "shed_deadline", "rejected", "failed")


def check_tenant(t, where):
    for field in TENANT_COUNTS + ("p50_latency_ticks", "p99_latency_ticks",
                                  "max_latency_ticks"):
        v = t.get(field)
        check(isinstance(v, int) and v >= 0,
              f"{where}.{field} is {v!r}, want a non-negative integer")
    s = {f: t.get(f, 0) for f in TENANT_COUNTS}
    check(s["submitted"] == s["completed"] + s["failed"] + s["rejected"] +
          s["shed_queue"] + s["shed_deadline"],
          f"{where}: submitted {s['submitted']} != completed+failed+rejected"
          f"+shed_queue+shed_deadline")
    check(s["completed"] == s["slo_met"] + s["deadline_miss"],
          f"{where}: completed {s['completed']} != slo_met+deadline_miss")
    check(t.get("p50_latency_ticks", 0) <= t.get("p99_latency_ticks", 0)
          <= t.get("max_latency_ticks", 0),
          f"{where}: latency percentiles not ordered p50 <= p99 <= max")


def check_windows(windows, kinds, where, device_count=None):
    for i, w in enumerate(windows):
        check(w.get("kind") in kinds,
              f"{where}[{i}] kind {w.get('kind')!r} unknown")
        check(isinstance(w.get("begin"), int) and isinstance(w.get("end"), int)
              and w["begin"] < w["end"],
              f"{where}[{i}] is not a valid [begin, end) interval")
        if device_count is not None:
            check(isinstance(w.get("device"), int)
                  and 0 <= w["device"] < device_count,
                  f"{where}[{i}] device {w.get('device')!r} outside fleet")


def check_health(health, where="health"):
    events = health.get("events", [])
    by_kind = {k: 0 for k in EVENT_KINDS}
    last_tick = 0
    for i, e in enumerate(events):
        kind = e.get("kind")
        check(kind in EVENT_KINDS, f"{where}.events[{i}] kind {kind!r} unknown")
        tick = e.get("tick")
        check(isinstance(tick, int) and tick >= last_tick,
              f"{where}.events[{i}] tick {tick!r} decreases")
        last_tick = tick if isinstance(tick, int) else last_tick
        check(isinstance(e.get("kernel"), str) and e.get("kernel"),
              f"{where}.events[{i}] missing kernel name")
        if kind in by_kind:
            by_kind[kind] += 1
    for counter, kind in (("quarantines", "quarantine"),
                          ("half_opens", "half_open"),
                          ("restores", "restore"), ("reopens", "reopen")):
        check(health.get(counter) == by_kind[kind],
              f"{where}.{counter} {health.get(counter)} != {by_kind[kind]} "
              f"{kind} events")


def check_fleet(doc):
    devices = doc.get("devices")
    check(isinstance(devices, int) and devices >= 1,
          f"devices {devices!r} must be a positive integer")
    fleet = doc.get("fleet", {})
    check(isinstance(fleet, dict), "fleet must be an object")
    stats = fleet.get("placements", {})
    for field in PLACEMENT_FIELDS:
        v = stats.get(field)
        check(isinstance(v, int) and v >= 0,
              f"fleet.placements.{field} is {v!r}, want a non-negative int")

    workers = fleet.get("workers", [])
    check(isinstance(workers, list) and len(workers) == devices,
          f"fleet.workers has {len(workers)} entries, want devices={devices}")
    wsum = {"placements": 0, "probes": 0}
    for i, w in enumerate(workers):
        check(w.get("device") == i, f"fleet.workers[{i}] device id mismatch")
        check(w.get("state") in WORKER_STATES,
              f"fleet.workers[{i}] state {w.get('state')!r} unknown")
        for f in ("placements", "completions", "failures", "probes"):
            check(isinstance(w.get(f), int) and w[f] >= 0,
                  f"fleet.workers[{i}].{f} is {w.get(f)!r}")
        wsum["placements"] += w.get("placements", 0)
        wsum["probes"] += w.get("probes", 0)
    check(wsum["placements"] == stats.get("placements"),
          f"worker placement sum {wsum['placements']} != "
          f"fleet.placements.placements {stats.get('placements')}")
    check(wsum["probes"] == stats.get("probes"),
          f"worker probe sum {wsum['probes']} != fleet.placements.probes")

    by_kind = {}
    last_tick = 0
    for i, e in enumerate(fleet.get("events", [])):
        kind = e.get("kind")
        check(kind in FLEET_EVENT_KINDS,
              f"fleet.events[{i}] kind {kind!r} unknown")
        tick = e.get("tick")
        check(isinstance(tick, int) and tick >= last_tick,
              f"fleet.events[{i}] tick {tick!r} decreases")
        last_tick = tick if isinstance(tick, int) else last_tick
        check(isinstance(e.get("device"), int)
              and 0 <= e.get("device", -1) < devices,
              f"fleet.events[{i}] device {e.get('device')!r} outside fleet")
        by_kind[kind] = by_kind.get(kind, 0) + 1
    for counter, kind in (("failovers", "failover"), ("hedges", "hedge"),
                          ("hedge_cancelled", "hedge_cancel"),
                          ("probes", "probe"), ("drains", "drain"),
                          ("drain_reopens", "drain_reopen"),
                          ("restores", "restore"), ("devices_lost", "dead")):
        check(stats.get(counter) == by_kind.get(kind, 0),
              f"fleet.placements.{counter} {stats.get(counter)} != "
              f"{by_kind.get(kind, 0)} {kind!r} events")
    return fleet, stats


def check_ledger(doc, totals, stats):
    ledger = doc.get("request_ledger", [])
    check(isinstance(ledger, list), "request_ledger must be an array")
    requests = doc.get("requests", 0)
    check(len(ledger) == requests,
          f"request_ledger has {len(ledger)} entries, want requests="
          f"{requests}")
    seen = set()
    histo = {k: 0 for k in LEDGER_OUTCOMES}
    failover_sum = hedged = hedge_wins = 0
    for i, e in enumerate(ledger):
        rid = e.get("id")
        check(isinstance(rid, int) and 0 <= rid < requests,
              f"request_ledger[{i}] id {rid!r} outside [0, {requests})")
        check(rid not in seen,
              f"request_ledger[{i}] duplicates id {rid} — accounting must "
              f"be exactly-once")
        seen.add(rid)
        outcome = e.get("outcome")
        check(outcome in LEDGER_OUTCOMES,
              f"request_ledger[{i}] outcome {outcome!r} unknown")
        if outcome in histo:
            histo[outcome] += 1
        if outcome == "completed":
            check(e.get("device", -1) >= 0,
                  f"request_ledger[{i}] completed without a device")
            check(e.get("completion_tick", 0) >= e.get("arrival", 0),
                  f"request_ledger[{i}] completes before it arrives")
        if outcome in ("shed_queue", "shed_deadline"):
            check(e.get("device", 0) == -1 and e.get("failovers", 1) == 0,
                  f"request_ledger[{i}] shed but carries placement state")
        failover_sum += e.get("failovers", 0)
        hedged += 1 if e.get("hedged") else 0
        hedge_wins += 1 if e.get("hedge_win_secondary") else 0
    check(len(seen) == requests,
          f"request_ledger covers {len(seen)} distinct ids, want {requests}")
    for outcome, field in (("completed", "completed"),
                           ("shed_queue", "shed_queue"),
                           ("shed_deadline", "shed_deadline"),
                           ("rejected", "rejected"), ("failed", "failed")):
        check(histo[outcome] == totals.get(field),
              f"ledger {outcome} count {histo[outcome]} != totals.{field} "
              f"{totals.get(field)}")
    check(failover_sum == stats.get("failovers"),
          f"ledger failover sum {failover_sum} != fleet failovers "
          f"{stats.get('failovers')}")
    check(hedged == stats.get("hedges"),
          f"ledger hedged count {hedged} != fleet hedges "
          f"{stats.get('hedges')}")
    check(hedge_wins == stats.get("hedge_wins_secondary"),
          f"ledger hedge_win_secondary count {hedge_wins} != fleet "
          f"hedge_wins_secondary {stats.get('hedge_wins_secondary')}")
    return {e["id"]: e for e in ledger if isinstance(e.get("id"), int)}


def check_repro(repro_path, doc, by_id):
    repro = load_json(repro_path)
    if repro is None:
        return
    check(repro.get("schema") == REPRO_SCHEMA,
          f"repro schema {repro.get('schema')!r}, want {REPRO_SCHEMA!r}")
    bundles = repro.get("bundles", [])
    fleet = doc.get("fleet", {})
    check(len(bundles) == fleet.get("repro_bundles"),
          f"repro has {len(bundles)} bundles, report says "
          f"{fleet.get('repro_bundles')}")
    check(repro.get("dropped") == fleet.get("repro_dropped"),
          f"repro dropped {repro.get('dropped')} != report "
          f"{fleet.get('repro_dropped')}")
    devices = doc.get("devices", 1)
    for i, b in enumerate(bundles):
        for field in ("request_id", "tick", "signature", "options_digest"):
            check(field in b, f"repro bundle[{i}] missing {field!r}")
        check(isinstance(b.get("device"), int)
              and 0 <= b.get("device", -1) < devices,
              f"repro bundle[{i}] device outside fleet")
        rid = b.get("request_id")
        entry = by_id.get(rid)
        check(entry is not None,
              f"repro bundle[{i}] request {rid} not in the ledger")
        if entry is not None:
            # A captured failure either stayed failed, or the fleet
            # recovered it (failover / hedge duplicate ate the fault).
            check(entry.get("outcome") == "failed"
                  or entry.get("failovers", 0) > 0 or entry.get("hedged"),
                  f"repro bundle[{i}] request {rid} has outcome "
                  f"{entry.get('outcome')!r} with no failover/hedge — a "
                  f"bundle must correspond to a supervisor-exhausted leg")


def validate(path, expect_chaos, expect_device_chaos, expect_clean_verify,
             repro_path):
    doc = load_json(path)
    if doc is None:
        return {}

    check_schema(doc, SCHEMA)
    check(isinstance(doc.get("final_tick"), int) and doc["final_tick"] > 0,
          "final_tick must be a positive integer")

    totals = doc.get("totals", {})
    check(isinstance(totals, dict), "totals must be an object")
    check_tenant(totals, "totals")
    check(totals.get("submitted") == doc.get("requests"),
          f"totals.submitted {totals.get('submitted')} != requests "
          f"{doc.get('requests')}")

    tenants = doc.get("tenants", [])
    check(isinstance(tenants, list) and tenants, "tenants must be non-empty")
    for i, t in enumerate(tenants):
        check_tenant(t, f"tenants[{i}]")
    for field in TENANT_COUNTS:
        total = sum(t.get(field, 0) for t in tenants)
        check(total == totals.get(field),
              f"tenant {field} sum {total} != totals.{field} "
              f"{totals.get(field)}")

    goodput = doc.get("goodput_per_mtick")
    check(isinstance(goodput, (int, float)) and goodput >= 0,
          f"goodput_per_mtick {goodput!r} must be a non-negative number")
    if totals.get("slo_met", 0) > 0:
        check(goodput > 0, "slo_met > 0 but goodput_per_mtick is 0")

    chaos = doc.get("chaos", {})
    check(isinstance(chaos, dict), "chaos must be an object")
    if expect_chaos:
        check(chaos.get("enabled") is True, "chaos.enabled must be true")
        check(chaos.get("windows"), "chaos run has no storm windows")
    check_windows(chaos.get("windows", []), CHAOS_KINDS, "chaos.windows")

    device_chaos = doc.get("device_chaos", {})
    check(isinstance(device_chaos, dict), "device_chaos must be an object")
    if expect_device_chaos:
        check(device_chaos.get("enabled") is True,
              "device_chaos.enabled must be true")
        check(device_chaos.get("windows"),
              "device-chaos run has no storm windows")
    check_windows(device_chaos.get("windows", []), DEVICE_CHAOS_KINDS,
                  "device_chaos.windows", device_count=doc.get("devices", 1))

    check_health(doc.get("health", {}))
    fleet, stats = check_fleet(doc)
    by_id = check_ledger(doc, totals, stats)

    verify = doc.get("verify", {})
    check(isinstance(verify, dict), "verify must be an object")
    if expect_clean_verify:
        check(verify.get("enabled") is True, "verify.enabled must be true")
        check(verify.get("mismatches") == 0,
              f"verify.mismatches {verify.get('mismatches')} != 0: scheduled "
              f"output diverged from direct dispatch")
        check(verify.get("counter_mismatches") == 0,
              f"verify.counter_mismatches {verify.get('counter_mismatches')} "
              f"!= 0: SM-local counters diverged from direct dispatch")

    if repro_path and not errors():
        check_repro(repro_path, doc, by_id)

    return doc


def check_baseline(doc, baseline_path):
    base = load_json(baseline_path)
    if base is None:
        return
    # The report is deterministic by contract: same seed + config give
    # identical numbers on any machine at any thread count, so exact
    # equality is the right check (no tolerance band).
    for field in ("schema", "seed", "requests", "mean_gap_ticks", "devices",
                  "final_tick", "goodput_per_mtick", "totals", "health",
                  "device_chaos", "fleet", "sim_ctas"):
        check(doc.get(field) == base.get(field),
              f"baseline drift in {field!r}: got {doc.get(field)!r}, "
              f"baseline {base.get(field)!r}")


def main(argv):
    path = None
    baseline = None
    repro = None
    expect_chaos = False
    expect_device_chaos = False
    expect_clean_verify = False
    for arg in argv[1:]:
        if arg.startswith("--baseline="):
            baseline = arg.split("=", 1)[1]
        elif arg.startswith("--repro="):
            repro = arg.split("=", 1)[1]
        elif arg == "--expect-chaos":
            expect_chaos = True
        elif arg == "--expect-device-chaos":
            expect_device_chaos = True
        elif arg == "--expect-clean-verify":
            expect_clean_verify = True
        elif path is None:
            path = arg
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2

    doc = validate(path, expect_chaos, expect_device_chaos,
                   expect_clean_verify, repro)
    if baseline and not errors():
        check_baseline(doc, baseline)
    if errors():
        return report_errors()
    print(f"OK: {path} (goodput {doc.get('goodput_per_mtick')}/Mtick, "
          f"{doc.get('totals', {}).get('completed')} completed, "
          f"{doc.get('fleet', {}).get('placements', {}).get('failovers')} "
          f"failovers)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
