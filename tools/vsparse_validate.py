#!/usr/bin/env python3
"""Shared stdlib-only helpers for the vsparse artifact validators.

Every validate_*.py script in this directory accumulates human-readable
findings against one JSON artifact and exits non-zero when any check
failed.  This module hosts the pieces they all repeated before PR 10:
the finding accumulator, the common type predicates, resilient JSON
loading, the schema/version-tag check, and the sanitizer hazard-kind ->
tool ownership table (previously duplicated between validate_trace.py
and validate_sanitizer_report.py).

Each validator runs as its own process, so a module-global accumulator
is safe and keeps the call sites as terse as the local `check()` they
replaced.  Stdlib only — runs anywhere CI has a python3.
"""
import json
import sys

# Sanitizer hazard kinds by owning tool; keep in sync with
# gpusim/sanitizer/report.cpp.
SANITIZER_KIND_TO_TOOL = {
    "raw_race": "race",
    "war_race": "race",
    "waw_race": "race",
    "divergent_barrier": "sync",
    "barrier_mismatch": "sync",
    "uninit_smem_read": "init",
    "global_use_after_free": "init",
    "smem_oob": "bounds",
    "global_oob": "bounds",
}
SANITIZER_TOOLS = ("race", "sync", "init", "bounds")

_errors = []


def check(cond, msg):
    """Record `msg` as a finding when `cond` is falsy; returns the
    condition so callers can guard dependent checks."""
    if not cond:
        _errors.append(msg)
    return bool(cond)


def fail(msg):
    """Record an unconditional finding."""
    _errors.append(msg)


def errors():
    """The findings recorded so far, in order."""
    return list(_errors)


def is_uint(x):
    """A non-negative int that is not a bool (JSON has no distinct
    unsigned type, but True/False parse as int)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_json(path):
    """Parse `path` as JSON; records a finding and returns None when the
    file is missing or malformed."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
        return None


def check_schema(doc, tag):
    """Top-level shape + schema-tag check."""
    if not check(isinstance(doc, dict), "top level is not an object"):
        return False
    return check(doc.get("schema") == tag,
                 f"schema is {doc.get('schema')!r}, want {tag!r}")


def report_errors(prefix="", file=None):
    """Print every finding as a FAIL line; returns the exit code (1 when
    any finding was recorded, else 0)."""
    out = file if file is not None else sys.stderr
    for e in _errors:
        print(f"{prefix}FAIL: {e}", file=out)
    return 1 if _errors else 0
