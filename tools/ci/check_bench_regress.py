#!/usr/bin/env python3
"""Fail-soft regression check for the CI bench smoke.

Every entry of the committed baseline names a google-benchmark run and one or
more counters, for example

    "BM_ServingThroughput_Ring/100000": {"ops_per_sec": 422303.0,
                                         "peak_rss_mb": 40.2},
    "BM_CheckerThroughput_Queue": {"nodes_per_sec": 4.1e6}

Rate counters (higher is better) warn when the fresh value fell more than
the threshold below the baseline.  The counters named in LOWER_IS_BETTER
(peak memory) warn when it rose more than the threshold above it.

For each of them the fresh value is looked up in the google-benchmark JSON
files given with --fresh, and a GitHub `::warning::` annotation is printed
when it regressed by more than the threshold (default 20%).  ALWAYS exits 0:
CI runners are shared and noisy, so a slow run must never block a merge --
the annotation puts the number in front of a human instead.

Stdlib-only on purpose: CI (and anyone locally) can run it with a bare
python3.

    python3 tools/ci/check_bench_regress.py \
        --fresh BENCH_serving_smoke.json --fresh BENCH_checker.json \
        --baseline tools/ci/bench_baseline.json
"""

import argparse
import json
import sys

# Counters where a smaller value is better; every other counter is a rate.
LOWER_IS_BETTER = {"peak_rss_mb"}


def warn(message: str) -> None:
    # `::warning::` renders as an annotation on the workflow run.
    print(f"::warning::check_bench_regress: {message}")


def load_json(path: str, what: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        warn(f"cannot read {what} {path}: {err}")
        return None


def fresh_rows(paths: list[str]) -> dict[str, dict]:
    """The first row per benchmark name across the fresh JSON files.

    Aggregate rows (mean/median/stddev) carry the same counters; the plain
    repetition row is the first match and what we compare.
    """
    rows: dict[str, dict] = {}
    for path in paths:
        doc = load_json(path, "fresh benchmark JSON")
        for bench in (doc or {}).get("benchmarks", []):
            rows.setdefault(bench.get("name"), bench)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True, action="append",
                        help="google-benchmark JSON from this run (repeatable)")
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="warn when a fresh value is worse than baseline by more than this fraction",
    )
    args = parser.parse_args()

    baseline = load_json(args.baseline, "baseline")
    if baseline is None:
        sys.exit(0)  # fail-soft: the warning above is the whole report
    rows = fresh_rows(args.fresh)

    for name, counters in baseline.items():
        if name.startswith("_") or not isinstance(counters, dict):
            continue  # notes
        for counter, base in counters.items():
            row = rows.get(name)
            if row is None or counter not in row:
                warn(f"fresh results have no '{name}' entry with a {counter} counter")
                continue
            if base <= 0:
                warn(f"baseline {counter} for '{name}' is not positive")
                continue
            fresh = float(row[counter])
            ratio = fresh / base
            if counter in LOWER_IS_BETTER:
                line = f"{name} {counter}: fresh {fresh:,.1f} vs baseline {base:,.1f} ({ratio:.2f}x)"
                regressed = ratio > 1.0 + args.threshold
                what = "peak memory grew"
            else:
                line = f"{name} {counter}: fresh {fresh:,.0f}/s vs baseline {base:,.0f}/s ({ratio:.2f}x)"
                regressed = ratio < 1.0 - args.threshold
                what = "throughput regressed"
            if regressed:
                warn(f"{what} >{args.threshold:.0%}: {line}")
            else:
                print(f"check_bench_regress: OK — {line}")
    sys.exit(0)


if __name__ == "__main__":
    main()
