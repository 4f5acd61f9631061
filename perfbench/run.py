#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads N] [--out FILE] [--det-out FILE]

Run from the repository root.  The `vsbench` program (perfbench/CMakeLists.txt) is
configured and built under .bench_build/perfbench (or under
$CARGO_TARGET_DIR/perfbench when that is set) on every call; a build
that is up to date costs well under a second.  Build output goes to
stderr, so the last stdout line is vsbench's result JSON.

--out FILE writes a result record (provenance + result) that
perfbench/compare.py reads.  --threads and --det-out are for the
determinism self-test (perfbench/selftest.py).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spmm_dlmc", "attention_tcu", "serve_fleet", "serve_chaos")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out_dir / "vsbench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.add_argument("--det-out")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "checkout of the repository")

    out_dir = build_dir()
    try:
        exe = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.det_out:
        cmd += ["--det-out", args.det_out]
    if args.trace == "1":
        spans = out_dir / "spans" / f"{args.workload}-{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(spans)]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if not lines:
        fail(f"vsbench printed nothing (exit {proc.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"vsbench's last line is not JSON: {lines[-1]!r}", 1)

    want = expected_metrics(args.trace == "1")
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}", 1)

    if args.out:
        provenance = {}
        for line in lines:
            if line.startswith("# provenance: "):
                provenance = json.loads(line[len("# provenance: "):])
        record = {"schema": "vsbench-result-v1", "provenance": provenance,
                  "wall_s": round(time.monotonic() - started, 3),
                  "result": result}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
