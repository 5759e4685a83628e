#!/usr/bin/env python3
"""Compare two Google Benchmark JSON files and flag regressions.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--threshold PCT]

Benchmarks are matched by name.  For each pair the script prefers the
items_per_second counter (higher is better; our planner benchmarks
report planning steps/sec through it) and falls back to real_time
(lower is better).  A benchmark that got worse by more than the
threshold (default 20%) is a regression; the script lists every match
and exits 1 if any regressed.

Only aggregate-free runs are expected; if a file contains aggregate
rows (mean/median/stddev from --benchmark_repetitions), only the
"mean" aggregates are compared.

Snapshot hygiene: comparing against a debug-build capture is
meaningless (debug throughput is an order of magnitude off release),
so any input whose context reports library_build_type "debug" is
refused unless --allow-debug is given, which downgrades the refusal to
a loud warning.  Likewise, a /shards:N benchmark captured on a host
with fewer than N cores never experienced real contention — "parity"
in such a snapshot is vacuous — so those comparisons are refused when
either file's recorded core count (context.hardware_concurrency,
falling back to the stock num_cpus) is below N, unless
--allow-undersized-host downgrades the refusal to warn-and-skip.
--require PATTERN (repeatable) additionally fails the run if no
matched benchmark matches the pattern — guarding against a renamed or
silently dropped benchmark slipping past the gate.
--require-any PATTERN is the host-aware variant: the pattern must
still match some common benchmark (same rename guard), but when every
match was skipped by the undersized-host rule the gate is waived with
a warning instead of failing — the right semantics for /shards:N
families that only a big-enough host can meaningfully gate: the shard
count is a worker budget the capturing host must actually have.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path


def check_build_type(path: Path, data: dict, allow_debug: bool) -> None:
    context = data.get("context", {})
    # "ocd_build_type" is injected by the benchmark binary and reflects
    # how this repository's code was compiled; the stock
    # "library_build_type" only describes the google-benchmark library
    # (distro packages ship it as a debug build), so it is the fallback
    # for old snapshots that predate the custom field.
    field = "ocd_build_type"
    build_type = context.get(field)
    if build_type is None:
        field = "library_build_type"
        build_type = context.get(field, "")
    if build_type.lower() != "debug":
        return
    message = (
        f"{path} was captured from a DEBUG build "
        f'(context.{field} == "debug"); debug throughput is '
        "not comparable to release numbers. Re-record it with the "
        "release-bench preset (scripts/reproduce_all.sh)."
    )
    if not allow_debug:
        sys.exit(f"error: {message}")
    print(f"WARNING: {message}", file=sys.stderr)
    print("WARNING: proceeding anyway because of --allow-debug.",
          file=sys.stderr)


def recorded_cores(data: dict) -> int | None:
    """Core count of the capturing host, or None for old snapshots.

    "hardware_concurrency" is injected by the benchmark binary; the
    stock "num_cpus" is the fallback for snapshots that predate it.
    """
    context = data.get("context", {})
    for field in ("hardware_concurrency", "num_cpus"):
        value = context.get(field)
        if value is None:
            continue
        try:
            cores = int(value)
        except (TypeError, ValueError):
            continue
        if cores > 0:
            return cores
    return None


def load_benchmarks(path: Path,
                    allow_debug: bool) -> tuple[dict[str, dict], int | None]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read benchmark JSON {path}: {exc}")
    check_build_type(path, data, allow_debug)
    rows = data.get("benchmarks", [])
    has_aggregates = any(r.get("run_type") == "aggregate" for r in rows)
    out: dict[str, dict] = {}
    for row in rows:
        # Rows recorded via SkipWithError (e.g. a SIMD level the host
        # cannot run) carry no measurement; comparing them is noise.
        if row.get("error_occurred"):
            continue
        if has_aggregates:
            if row.get("aggregate_name") != "mean":
                continue
            name = row.get("run_name", row["name"])
        else:
            name = row["name"]
        out[name] = row
    return out, recorded_cores(data)


SHARDS_RE = re.compile(r"/shards:(\d+)\b")


def undersized_for(name: str, cores: int | None) -> bool:
    """True when `name` is a /shards:N benchmark and the host that
    recorded it had fewer than N cores."""
    match = SHARDS_RE.search(name)
    return (match is not None and cores is not None
            and cores < int(match.group(1)))


def metric(row: dict) -> tuple[str, float, bool]:
    """Returns (metric name, value, higher_is_better)."""
    if "items_per_second" in row:
        return ("items_per_second", float(row["items_per_second"]), True)
    return ("real_time", float(row["real_time"]), False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        help="regression threshold in percent (default: 20)",
    )
    parser.add_argument(
        "--allow-debug",
        action="store_true",
        help="downgrade the debug-build-snapshot refusal to a warning",
    )
    parser.add_argument(
        "--allow-undersized-host",
        action="store_true",
        help="downgrade the undersized-host /shards:N refusal to a "
        "warning and skip those comparisons",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fail unless some compared benchmark matches this regex "
        "(repeatable)",
    )
    parser.add_argument(
        "--require-any",
        action="append",
        default=[],
        metavar="PATTERN",
        help="like --require, but waived with a warning when every "
        "match was skipped by the undersized-host rule (repeatable)",
    )
    args = parser.parse_args()

    base, base_cores = load_benchmarks(args.baseline, args.allow_debug)
    curr, curr_cores = load_benchmarks(args.current, args.allow_debug)
    common = [name for name in base if name in curr]
    if not common:
        sys.exit("error: no benchmark names in common between the two files")
    missing = [p for p in args.require + args.require_any
               if not any(re.search(p, name) for name in common)]
    if missing:
        sys.exit("error: required benchmark(s) absent from the comparison: "
                 + ", ".join(missing))

    # A /shards:N family recorded on a host with fewer than N cores
    # measured oversubscription, not contention — parity there proves
    # nothing about a real N-core regression.  --require patterns were
    # checked above, against the pre-skip names: the benchmarks exist in
    # both files, only their regression comparison is vacuous.
    undersized = [
        name for name in common
        if undersized_for(name, base_cores) or undersized_for(
            name, curr_cores)
    ]
    if undersized:
        cores = min(c for c in (base_cores, curr_cores) if c is not None)
        message = (
            f"{len(undersized)} /shards:N benchmark(s) were captured on "
            f"a host recording only {cores} core(s) "
            f"(context.hardware_concurrency/num_cpus): "
            + ", ".join(undersized))
        if not args.allow_undersized_host:
            sys.exit(
                f"error: {message}\nRe-record on a host with enough "
                "cores, or pass --allow-undersized-host to skip these "
                "comparisons.")
        print(f"WARNING: {message}", file=sys.stderr)
        print(
            "WARNING: skipping their comparison because of "
            "--allow-undersized-host.",
            file=sys.stderr)
        common = [name for name in common if name not in set(undersized)]
        # --require-any gates whose every match was undersized-skipped
        # are waived on this host (they were present pre-skip — the
        # rename guard above already vouched for that).
        for pattern in args.require_any:
            if not any(re.search(pattern, name) for name in common):
                print(
                    f"WARNING: --require-any gate '{pattern}' waived: "
                    "every matching benchmark was captured on an "
                    "undersized host.",
                    file=sys.stderr)
        if not common:
            print("\nOK: nothing left to compare after undersized-host "
                  "skips (0 compared)")
            return 0

    regressions = []
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'metric':>16}  {'baseline':>12} "
          f"{'current':>12}  {'change':>8}")
    for name in common:
        base_metric, base_val, higher_better = metric(base[name])
        curr_metric, curr_val, _ = metric(curr[name])
        if base_metric != curr_metric or base_val == 0:
            print(f"{name:<{width}}  (incomparable: {base_metric} vs "
                  f"{curr_metric})")
            continue
        # Positive change == improvement, in either metric orientation.
        if higher_better:
            change = 100.0 * (curr_val / base_val - 1.0)
        else:
            change = 100.0 * (base_val / curr_val - 1.0)
        flag = ""
        if change < -args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, change))
        print(f"{name:<{width}}  {base_metric:>16}  {base_val:12.4g} "
              f"{curr_val:12.4g}  {change:+7.1f}%{flag}")

    skipped = sorted(set(base) ^ set(curr))
    if skipped:
        print(f"# unmatched benchmarks ignored: {', '.join(skipped)}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}%:")
        for name, change in regressions:
            print(f"  {name}: {change:+.1f}%")
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0f}% "
          f"({len(common)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
