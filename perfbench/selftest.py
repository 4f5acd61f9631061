#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]     (default: all four)

Runs each workload three times on one seed with minimal run length: at
engine threads 1 twice and at engine threads 4 once, and compares the
simulated results each run dumps (--det-out):

  inv.*    thread-invariant values: per launch the CTA, instruction,
           HMMA, L1-miss, L2-access-total and shared-memory-wavefront
           counts plus the output hash; per serve trace the load report
           bytes and the serve metrics.  Must be identical in all runs.
  serial.* cost-model cycles, which read the L2 hit/miss split and DRAM
           bytes that vary with concurrent SM interleaving (DESIGN.md
           §2a), and the chaos load reports, which a known engine race
           can change at threads > 1 (a launch whose CTAs throw
           different errors rethrows whichever SM reported first).
           Must be identical between the two single-thread runs.

Any difference is a behaviour change, not noise.  Exit 1 on a
difference or a failed run.
"""
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spmm_dlmc", "attention_tcu", "serve_fleet", "serve_chaos")
SEED = "7"


def run(workload, threads, out):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "0", "--trace", "0",
           "--threads", str(threads), "--det-out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"FAIL {workload} threads={threads}: exit {proc.returncode}")
        return None
    return dict(line.split("\t", 1)
                for line in Path(out).read_text().splitlines())


def differences(a, b, prefix):
    keys = sorted(k for k in set(a) | set(b) if k.startswith(prefix))
    return [k for k in keys if a.get(k) != b.get(k)]


def main(workloads):
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads:
            runs = [run(w, t, Path(tmp) / f"{w}-{i}.tsv")
                    for i, t in enumerate((1, 1, 4))]
            if any(r is None for r in runs):
                ok = False
                continue
            one, again, four = runs
            diffs = (differences(one, again, "inv.") +
                     differences(one, again, "serial.") +
                     differences(one, four, "inv."))
            n_inv = sum(k.startswith("inv.") for k in one)
            n_serial = sum(k.startswith("serial.") for k in one)
            if diffs or n_inv == 0:
                ok = False
                print(f"FAIL {w}: {len(diffs)} differing values, e.g. "
                      f"{diffs[:3]}")
            else:
                print(f"ok   {w}: {n_inv} thread-invariant values equal at "
                      f"threads 1/1/4, {n_serial} more equal at 1/1")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
