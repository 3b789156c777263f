#!/usr/bin/env python3
"""Gate regressions between two google-benchmark-shaped JSON files.

Compares two runs' results (the artifacts the bench-release CI job
uploads) benchmark-by-benchmark and fails when any benchmark present in
both files got worse than the threshold. CI checks two such files:

  BENCH_interp.json  the interpreter microbenchmarks (bench/micro_interp):
                     host wall time, which the goldens deliberately
                     ignore; gated at 10%.
  BENCH_claims.json  `aoci claims --json`: simulated quantities from the
                     claims studies (warmup cycles, compile-cycle bills),
                     deterministic, so gated at 1%.

Usage:
  tools/check_bench_regression.py BASELINE.json CURRENT.json [--threshold 10]

Exit status: 0 when no gated regression (or no usable baseline — a cold
cache must not fail CI), 1 when at least one benchmark regressed beyond
the threshold, 2 on malformed input.

A row is higher-is-better when both sides report items_per_second
(throughput; `aoci claims` also puts the compile cycles serve mode's
sharing saved there), and lower-is-better real_time otherwise.
Aggregate rows (mean/median/stddev) and error rows are skipped; other
keys, such as the claims file's "claims" array, are ignored. Benchmarks
that exist on only one side are reported but never gate — adding or
retiring a benchmark is not a regression.
"""

import argparse
import json
import math
import sys


def load_benchmarks(path, missing_ok=False):
    """Returns {name: (items_per_second or None, real_time_ns)},
    or None when missing_ok and the file does not exist."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        if missing_ok:
            return None
        print(f"error: cannot read {path}: not found", file=sys.stderr)
        sys.exit(2)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"error: {path}: top-level JSON value is "
              f"{type(doc).__name__}, expected an object with a "
              f"'benchmarks' array", file=sys.stderr)
        sys.exit(2)
    benchmarks = doc.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        print(f"error: {path}: 'benchmarks' is "
              f"{type(benchmarks).__name__}, expected an array",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for i, b in enumerate(benchmarks):
        if not isinstance(b, dict):
            print(f"error: {path}: benchmarks[{i}] is "
                  f"{type(b).__name__}, expected an object",
                  file=sys.stderr)
            sys.exit(2)
        if b.get("run_type") == "aggregate" or "error_occurred" in b:
            continue
        name = b.get("name")
        real = b.get("real_time")
        if name is None or real is None:
            continue
        if not isinstance(real, (int, float)) or isinstance(real, bool):
            print(f"error: {path}: benchmarks[{i}] ({name}): real_time is "
                  f"{real!r}, expected a number", file=sys.stderr)
            sys.exit(2)
        ips = b.get("items_per_second")
        if ips is not None and (not isinstance(ips, (int, float))
                                or isinstance(ips, bool)):
            print(f"error: {path}: benchmarks[{i}] ({name}): "
                  f"items_per_second is {ips!r}, expected a number",
                  file=sys.stderr)
            sys.exit(2)
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            print(f"error: {path}: unknown time_unit '{unit}'", file=sys.stderr)
            sys.exit(2)
        out[name] = (ips, real * scale)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("baseline")
    p.add_argument("current")
    p.add_argument("--threshold", type=float, default=10.0,
                   help="percent slowdown that fails the gate (default 10)")
    args = p.parse_args()

    base = load_benchmarks(args.baseline, missing_ok=True)
    if not base:
        # A cold baseline cache (first run on a branch) must not fail CI.
        print(f"no usable baseline at {args.baseline}; nothing to gate")
        return 0
    cur = load_benchmarks(args.current)
    if not cur:
        print(f"error: no benchmarks in {args.current}", file=sys.stderr)
        return 2

    regressions = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(base):
        if name not in cur:
            print(f"{name:<44} {'(retired)':>12}")
            continue
        b_ips, b_ns = base[name]
        c_ips, c_ns = cur[name]
        higher_is_better = b_ips is not None and c_ips is not None
        if (b_ips if higher_is_better else b_ns) == 0:
            # A zero baseline cannot gate a ratio; report, never fail.
            print(f"{name:<44} {'(zero baseline)':>12}")
            continue
        if higher_is_better:
            # Slowdown = the loss of throughput (or of savings); a fall to
            # zero is an unbounded one.
            slowdown_pct = (b_ips / c_ips - 1.0) * 100.0 if c_ips else math.inf
            b_disp, c_disp = f"{b_ips:.3g}/s", f"{c_ips:.3g}/s"
        else:
            # Lower is better; slowdown = wall-time growth.
            slowdown_pct = (c_ns / b_ns - 1.0) * 100.0
            b_disp, c_disp = f"{b_ns:.3g}ns", f"{c_ns:.3g}ns"
        verdict = ""
        if slowdown_pct > args.threshold:
            regressions.append((name, slowdown_pct))
            verdict = "  REGRESSED"
        print(f"{name:<44} {b_disp:>12} {c_disp:>12} "
              f"{slowdown_pct:>+7.1f}%{verdict}")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<44} {'(new)':>12}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:g}%:", file=sys.stderr)
        for name, pct in regressions:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
        return 1
    print(f"\nok: no benchmark regressed more than {args.threshold:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
