#!/usr/bin/env python3
"""Validate a vsparse-sanitizer-v1 report (the --sanitize-report export).

Usage:
  python3 tools/validate_sanitizer_report.py REPORT.json [--expect-clean]

Checks the schema structurally (field presence, types, enum values,
tool/kind consistency, cross-checked totals) so CI catches an exporter
regression the moment it lands.  With --expect-clean, additionally
fails if any launch produced a report, suppressed a report, or
aborted — the shipped-kernels-are-hazard-free gate.

Stdlib only; exit code 0 on success, 1 on validation failure.
"""

import argparse
import sys

from vsparse_validate import SANITIZER_KIND_TO_TOOL as KIND_TO_TOOL
from vsparse_validate import SANITIZER_TOOLS as TOOLS
from vsparse_validate import check as expect
from vsparse_validate import errors, is_uint, load_json, report_errors

SCHEMA = "vsparse-sanitizer-v1"


def check_site(site, where):
    if not expect(isinstance(site, dict), f"{where}: site is not an object"):
        return
    warp = site.get("warp")
    expect(isinstance(warp, int) and not isinstance(warp, bool) and warp >= -1,
           f"{where}: bad warp {warp!r} (int >= -1 required)")
    expect(isinstance(site.get("op"), str) and site.get("op"),
           f"{where}: bad op {site.get('op')!r}")
    expect(is_uint(site.get("cta_op")),
           f"{where}: bad cta_op {site.get('cta_op')!r}")


def check_report(rep, where):
    if not expect(isinstance(rep, dict), f"{where}: report is not an object"):
        return None
    kind = rep.get("kind")
    if expect(kind in KIND_TO_TOOL, f"{where}: unknown kind {kind!r}"):
        expect(rep.get("tool") == KIND_TO_TOOL[kind],
               f"{where}: tool {rep.get('tool')!r} does not own kind {kind!r}")
    else:
        expect(rep.get("tool") in TOOLS,
               f"{where}: unknown tool {rep.get('tool')!r}")
    expect(is_uint(rep.get("sm")), f"{where}: bad sm {rep.get('sm')!r}")
    expect(is_uint(rep.get("cta")), f"{where}: bad cta {rep.get('cta')!r}")
    expect(is_uint(rep.get("addr")), f"{where}: bad addr {rep.get('addr')!r}")
    expect(is_uint(rep.get("bytes")) and rep.get("bytes") >= 1,
           f"{where}: bad bytes {rep.get('bytes')!r} (>= 1 required)")
    expect(is_uint(rep.get("epoch")), f"{where}: bad epoch {rep.get('epoch')!r}")
    check_site(rep.get("first"), f"{where}.first")
    check_site(rep.get("second"), f"{where}.second")
    second = rep.get("second")
    if isinstance(second, dict):
        expect(isinstance(second.get("warp"), int) and second.get("warp") >= 0,
               f"{where}: second site must name a warp (got "
               f"{second.get('warp')!r})")
    expect(isinstance(rep.get("detail"), str),
           f"{where}: detail is not a string")
    return rep.get("tool")


def check_launch(launch, i):
    where = f"launches[{i}]"
    if not expect(isinstance(launch, dict), f"{where}: not an object"):
        return [], 0, False
    expect(launch.get("index") == i,
           f"{where}: index {launch.get('index')!r} != position {i}")
    expect(isinstance(launch.get("kernel"), str),
           f"{where}: kernel is not a string")
    grid = launch.get("grid")
    expect(is_uint(grid) and grid >= 1, f"{where}: bad grid {grid!r}")
    ctat = launch.get("cta_threads")
    expect(is_uint(ctat) and ctat >= 32 and ctat % 32 == 0,
           f"{where}: bad cta_threads {ctat!r} (positive multiple of 32)")
    expect(is_uint(launch.get("smem_bytes")),
           f"{where}: bad smem_bytes {launch.get('smem_bytes')!r}")
    expect(isinstance(launch.get("aborted"), bool),
           f"{where}: aborted is not a bool")
    expect(is_uint(launch.get("suppressed")),
           f"{where}: bad suppressed {launch.get('suppressed')!r}")
    reports = launch.get("reports")
    tools = []
    if expect(isinstance(reports, list), f"{where}: reports is not a list"):
        for j, rep in enumerate(reports):
            tool = check_report(rep, f"{where}.reports[{j}]")
            if tool in TOOLS:
                tools.append(tool)
    return tools, launch.get("suppressed") or 0, bool(launch.get("aborted"))


def validate(doc, expect_clean):
    if not expect(isinstance(doc, dict), "top level is not an object"):
        return
    expect(doc.get("schema") == SCHEMA,
           f"schema {doc.get('schema')!r} != {SCHEMA!r}")
    launches = doc.get("launches")
    if not expect(isinstance(launches, list), "launches is not a list"):
        return
    expect(doc.get("num_launches") == len(launches),
           f"num_launches {doc.get('num_launches')!r} != "
           f"{len(launches)} launches present")

    all_tools = []
    total_suppressed = 0
    any_aborted = False
    for i, launch in enumerate(launches):
        tools, suppressed, aborted = check_launch(launch, i)
        all_tools.extend(tools)
        total_suppressed += suppressed
        any_aborted = any_aborted or aborted

    expect(doc.get("num_reports") == len(all_tools),
           f"num_reports {doc.get('num_reports')!r} != "
           f"{len(all_tools)} reports present")
    expect(doc.get("num_suppressed") == total_suppressed,
           f"num_suppressed {doc.get('num_suppressed')!r} != "
           f"sum of per-launch suppressed {total_suppressed}")
    by_tool = doc.get("by_tool")
    if expect(isinstance(by_tool, dict), "by_tool is not an object"):
        expect(sorted(by_tool) == sorted(TOOLS),
               f"by_tool keys {sorted(by_tool)} != {sorted(TOOLS)}")
        for tool in TOOLS:
            want = sum(1 for t in all_tools if t == tool)
            expect(by_tool.get(tool) == want,
                   f"by_tool[{tool!r}] {by_tool.get(tool)!r} != "
                   f"{want} reports counted")

    if expect_clean:
        expect(len(all_tools) == 0,
               f"--expect-clean: {len(all_tools)} hazard report(s) present")
        expect(total_suppressed == 0,
               f"--expect-clean: {total_suppressed} suppressed report(s)")
        expect(not any_aborted, "--expect-clean: an aborted launch is present")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", help="path to the vsparse-sanitizer-v1 JSON")
    ap.add_argument("--expect-clean", action="store_true",
                    help="fail if any report/suppression/abort is present")
    args = ap.parse_args()

    doc = load_json(args.report)
    if doc is not None:
        validate(doc, args.expect_clean)

    if errors():
        code = report_errors(file=sys.stdout)
        print(f"{args.report}: {len(errors())} validation error(s)")
        return code
    n = doc.get("num_reports", 0)
    clean = " (clean)" if args.expect_clean else ""
    print(f"OK: {args.report}: {doc.get('num_launches')} launches, "
          f"{n} reports{clean}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
