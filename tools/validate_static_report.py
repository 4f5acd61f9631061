#!/usr/bin/env python3
"""Validate the shape-class verifier's certificate store.

Usage: validate_static_report.py CERTS.json [--expect-no-refuted]
       [--expect-arch=A,B] [--expect-kernels=N] [--expect-classes=N]

Checks the vsparse-static-v1 certificate store the static_verify tool
writes (version tag, entry schema, shape-class well-formedness, verdict
enum, counterexample presence/membership on refuted entries, corner
accounting, (kernel, arch, class) uniqueness, size caps).
--expect-no-refuted is the CI gate: every shipped kernel must be proved
(or safe-by-rejection) on every preset.  --expect-arch requires
coverage of the named presets; --expect-kernels / --expect-classes put
a floor on how much of the registry the store covers, so a silently
shrunk verification sweep fails loudly instead of green.  Stdlib only — runs anywhere CI has a
python3.
"""
import sys

from vsparse_validate import check, check_schema, errors, is_number, \
    is_uint, load_json, report_errors

VERSION = "vsparse-static-v1"
VERDICTS = {"proved", "refuted", "unknown"}
# Sanity caps on the store's size.
MAX_ENTRIES = 65536
MAX_STRING = 512


def check_dim(dim, where):
    if not check(isinstance(dim, dict), f"{where} is not an object"):
        return None
    lo, hi, mod = dim.get("lo"), dim.get("hi"), dim.get("mod")
    check(is_uint(lo), f"{where}.lo {lo!r} must be a non-negative int")
    check(is_uint(hi) and (not is_uint(lo) or hi >= lo),
          f"{where}.hi {hi!r} must be an int >= lo")
    check(is_uint(mod) and mod >= 1, f"{where}.mod {mod!r} must be >= 1")
    return dim


def check_class(cls, where):
    if not check(isinstance(cls, dict), f"{where} is not an object"):
        return None
    name = cls.get("name")
    check(isinstance(name, str) and 0 < len(name) <= MAX_STRING,
          f"{where}.name {name!r} must be a non-empty string")
    v = cls.get("v")
    check(v in (1, 2, 4, 8), f"{where}.v {v!r} outside CVS granularities")
    for dim in ("m", "k", "n"):
        check_dim(cls.get(dim), f"{where}.{dim}")
    d_lo, d_hi = cls.get("d_lo"), cls.get("d_hi")
    check(is_number(d_lo) and is_number(d_hi) and 0.0 <= d_lo <= d_hi <= 1.0,
          f"{where}: density range [{d_lo!r}, {d_hi!r}] invalid")
    return cls


def shape_in_class(shape, cls):
    """Mirror ShapeClass::contains for the counterexample check."""
    def dim_ok(x, dim):
        return (isinstance(dim, dict) and is_uint(x)
                and dim.get("lo", 0) <= x <= dim.get("hi", 0)
                and x % max(1, dim.get("mod", 1)) == 0)
    return (dim_ok(shape.get("m"), cls.get("m"))
            and dim_ok(shape.get("k"), cls.get("k"))
            and dim_ok(shape.get("n"), cls.get("n"))
            and shape.get("v") == cls.get("v")
            and is_number(shape.get("density"))
            and cls.get("d_lo", 0.0) - 1e-9 <= shape["density"]
            <= cls.get("d_hi", 1.0) + 1e-9)


def check_entry(entry, i, seen):
    where = f"entries[{i}]"
    if not check(isinstance(entry, dict), f"{where} is not an object"):
        return None
    for field in ("kernel", "arch"):
        v = entry.get(field)
        check(isinstance(v, str) and 0 < len(v) <= MAX_STRING,
              f"{where}.{field} {v!r} must be a non-empty string")
    cls = check_class(entry.get("class"), f"{where}.class")
    verdict = entry.get("verdict")
    check(verdict in VERDICTS, f"{where}.verdict {verdict!r} unknown")

    key = (entry.get("kernel"), entry.get("arch"),
           (cls or {}).get("name"))
    check(key not in seen,
          f"{where}: duplicate (kernel, arch, class) {key}")
    seen.add(key)

    checked = entry.get("corners_checked")
    rejected = entry.get("corners_rejected")
    check(is_uint(checked), f"{where}.corners_checked {checked!r}")
    check(is_uint(rejected) and (not is_uint(checked) or rejected <= checked),
          f"{where}.corners_rejected {rejected!r} must be <= corners_checked")
    if verdict == "proved":
        check(is_uint(checked) and checked >= 1,
              f"{where}: proved with no corners checked")

    cex = entry.get("counterexample")
    if verdict == "refuted":
        if check(isinstance(cex, dict),
                 f"{where}: refuted entry lacks a counterexample"):
            fields_ok = True
            for field in ("m", "k", "n", "v"):
                fields_ok &= check(
                    is_uint(cex.get(field)),
                    f"{where}.counterexample.{field} "
                    f"{cex.get(field)!r} must be a non-negative int")
            fields_ok &= check(is_number(cex.get("density")),
                               f"{where}.counterexample.density missing")
            if cls is not None and fields_ok:
                check(shape_in_class(cex, cls),
                      f"{where}: counterexample {cex} is not a member of "
                      f"class {cls.get('name')!r}")
        check(isinstance(entry.get("site"), str) and entry.get("site"),
              f"{where}: refuted entry lacks a site")
    else:
        check(cex is None,
              f"{where}: {verdict} entry carries a counterexample")
    return entry


def validate_certs(doc, expect):
    check_schema(doc, VERSION, key="version")
    entries = doc.get("entries")
    if not check(isinstance(entries, list), "entries must be a list"):
        return
    check(len(entries) <= MAX_ENTRIES,
          f"{len(entries)} entries exceed the loader cap {MAX_ENTRIES}")

    seen = set()
    kernels, arches, classes = set(), set(), set()
    refuted = []
    for i, entry in enumerate(entries):
        e = check_entry(entry, i, seen)
        if e is None:
            continue
        kernels.add(e.get("kernel"))
        arches.add(e.get("arch"))
        if isinstance(e.get("class"), dict):
            classes.add(e["class"].get("name"))
        if e.get("verdict") == "refuted":
            refuted.append(e)

    # Every kernel must be covered on every arch for every class the
    # store mentions — a ragged product means the sweep was cut short.
    want = len(kernels) * len(arches) * len(classes)
    check(len(entries) == want,
          f"{len(entries)} entries != {len(kernels)} kernels x "
          f"{len(arches)} arches x {len(classes)} classes = {want}")

    for arch in expect["arches"]:
        check(arch in arches,
              f"no entries for arch {arch!r} (saw {sorted(arches)})")
    if expect["kernels"]:
        check(len(kernels) >= expect["kernels"],
              f"{len(kernels)} kernels covered, want >= {expect['kernels']}")
    if expect["classes"]:
        check(len(classes) >= expect["classes"],
              f"{len(classes)} classes covered, want >= {expect['classes']}")
    if expect["no_refuted"]:
        for e in refuted:
            check(False,
                  f"--expect-no-refuted: {e.get('kernel')} refuted over "
                  f"{e.get('class', {}).get('name')!r} on {e.get('arch')} "
                  f"at {e.get('site')}: counterexample "
                  f"{e.get('counterexample')}")
    return len(entries), len(refuted)


def main(argv):
    path = None
    expect = {"no_refuted": False, "arches": [], "kernels": 0, "classes": 0}
    for arg in argv[1:]:
        if arg == "--expect-no-refuted":
            expect["no_refuted"] = True
        elif arg.startswith("--expect-arch="):
            expect["arches"] = [a for a in arg.split("=", 1)[1].split(",")
                                if a]
        elif arg.startswith("--expect-kernels="):
            expect["kernels"] = int(arg.split("=", 1)[1])
        elif arg.startswith("--expect-classes="):
            expect["classes"] = int(arg.split("=", 1)[1])
        elif path is None:
            path = arg
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2

    n_entries = n_refuted = 0
    doc = load_json(path)
    if doc is not None and check(isinstance(doc, dict),
                                 "top level is not an object"):
        result = validate_certs(doc, expect)
        if result is not None:
            n_entries, n_refuted = result

    if errors():
        return report_errors(prefix="validate_static_report: ")
    print(f"OK: {path}: {n_entries} certificates, {n_refuted} refuted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
