#!/usr/bin/env python3
"""Bench regression gate: fail when a speedup row falls below its floor.

Usage: check_bench.py BENCH_op2.json bench_thresholds.json

Replaces the old "cat BENCH_op2.json for eyeballing" CI step with an
actual check. The threshold file commits a floor per `*_speedup` row
(see bench/README.md for the format); this script fails the job when

  * a row named in the threshold file is present in the emitted bench
    file with a value below its floor, or
  * a row marked "required" in the threshold file is missing from the
    emitted bench file (a silently-vanished measurement is a regression
    of the harness, not a pass).

Speedup rows present in the bench file but absent from the threshold
file are reported as unguarded, without failing — new rows should get a
floor in the same PR that introduces them.

A row's "min" is either a plain number (one floor for every runner) or
an object keyed by minimum hardware-thread count, e.g.
{"1": 0.5, "4": 1.1}: the entry with the largest key <= the bench
file's hardware_threads applies. When no key applies (an
overlap-dependent floor keyed {"2": ...} on a 1-core runner) the row is
skipped — "required" is waived too, since the measurement is
meaningless there, not missing. An unreported thread count ("?") is
treated as 1.

Floors are regression tripwires, not performance targets: they sit well
below the values a healthy run produces (including single-core runs,
where overlap-dependent speedups sink to parity) so that only a real
regression — or a CI runner meltdown worth noticing — trips them.
"""

import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def resolve_floor(spec, hw_threads):
    """The floor applying at `hw_threads`, or None when the row is
    hardware-gated out (no dict key <= the runner's thread count)."""
    floor = spec["min"]
    if not isinstance(floor, dict):
        return floor
    applicable = [int(k) for k in floor if int(k) <= hw_threads]
    if not applicable:
        return None
    return floor[str(max(applicable))]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = load(argv[1])
    thresholds = load(argv[2]).get("thresholds", {})

    rows = {
        r["name"]: r
        for r in bench.get("results", [])
        if isinstance(r, dict) and "name" in r
    }
    hw = bench.get("hardware_threads", "?")
    print(f"check_bench: {argv[1]}: {len(rows)} rows, "
          f"{hw} hardware thread(s)")
    try:
        hw_threads = int(hw)
    except (TypeError, ValueError):
        hw_threads = 1

    failures = []
    waived = []   # hardware-gated out (no floor key <= hw_threads)
    skipped = []  # optional rows absent from this run's output
    for name, spec in sorted(thresholds.items()):
        floor = resolve_floor(spec, hw_threads)
        if floor is None:
            print(f"  SKIP {name}: no floor at {hw_threads} hardware "
                  f"thread(s)")
            waived.append(name)
            continue
        row = rows.get(name)
        if row is None:
            if spec.get("required", False):
                failures.append(f"{name}: required row missing from bench "
                                f"output")
            else:
                print(f"  SKIP {name}: not emitted by this run")
                skipped.append(name)
            continue
        value = row["value"]
        status = "ok" if value >= floor else "FAIL"
        # The label carries the row's configuration (e.g. the partition
        # and worker counts) — print it so a CI log shows *what* was
        # measured, not just the number.
        label = row.get("label", "")
        detail = f"  [{label}]" if label else ""
        print(f"  {status:4} {name}: {value:.3f} (floor {floor}){detail}")
        if value < floor:
            failures.append(f"{name}: {value:.3f} below floor {floor}")

    unguarded = [
        n for n in sorted(rows)
        if n.endswith("_speedup") and n not in thresholds
    ]
    for name in unguarded:
        print(f"  WARN {name}: speedup row has no committed floor")

    # Explicit waiver accounting: a gate that silently skips half its
    # rows looks green for the wrong reason — say out loud what was not
    # checked and why, so a CI log reader can tell "enforced and passed"
    # from "never applicable on this runner".
    if waived:
        print(f"check_bench: {len(waived)} row(s) waived at {hw_threads} "
              f"hardware thread(s) (floor requires more parallelism): "
              + ", ".join(waived))
    if skipped:
        print(f"check_bench: {len(skipped)} optional row(s) not emitted "
              f"by this run: " + ", ".join(skipped))
    if not waived and not skipped:
        print("check_bench: no rows waived or skipped")

    if failures:
        print("check_bench: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_bench: all gated rows at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
