#!/usr/bin/env python3
"""Serving-and-checking benchmark for the lintime library.

Builds perfbench/ (and the library it links) from source on first use, runs
one workload in one single-threaded process and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Benchmark run (run from the repository root):

    python3 perfbench/run.py --workload serve-uniform --seed 42 --seconds 20 --trace 0

    --trace 0   end-to-end metrics (BENCHMARK.json "end_to_end")
    --trace 1   per-layer metrics (BENCHMARK.json "per_layer"); the phase
                spans of the latest run are written to <build>/spans/<workload>.json

Other modes:

    python3 perfbench/run.py --steadiness [--workload W] [--seconds S]
        Runs each workload (--trace 0) once on each of seeds 1..10 and
        prints every end-to-end metric's median, quartiles and spread
        (IQR / median) against its bound.

    python3 perfbench/run.py --self-test
        Corrupts one audited history (serve-zipf-audit) and requires the
        run to report failed ops.

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
otherwise to .bench_build/perfbench; both are relative to the repository
root unless absolute.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("serve-uniform", "serve-zipf-audit", "check-search")
STEADINESS_SEEDS = range(1, 11)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def local_env():
    """The environment for child processes, with temporary files kept inside
    the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_logged(cmd, log, timeout):
    """Runs a build step with its output in `log`; True on success."""
    with open(log, "a") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                                env=local_env(), start_new_session=True)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout", 2)
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").is_file():
        ok = run_logged(["cmake", "-S", str(HERE), "-B", str(bdir),
                         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if not ok:
            sys.stderr.write(log.read_text()[-4000:])
            fail("cmake configure failed")
    if not run_logged(["cmake", "--build", str(bdir), "-j", jobs], log, BUILD_TIMEOUT_S):
        sys.stderr.write(log.read_text()[-4000:])
        fail("build failed")
    return bdir / "lintime_perfbench"


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}", 2)


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (result dict, stderr text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scenario-dir", str(HERE / "scenarios"), *extra]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=local_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        fail(f"{workload} seed {seed}: exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), err


def check_names(result, spec, trace):
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        fail(f"metric names or units {diff} disagree with BENCHMARK.json")


def steadiness(binary, spec, args):
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_ok = True
    for workload in workloads:
        values = {}
        for seed in STEADINESS_SEEDS:
            result, _ = run_once(binary, workload, seed, seconds, 0)
            check_names(result, spec, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
                all_ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        print(f"{workload}: {len(STEADINESS_SEEDS)} runs, seeds {STEADINESS_SEEDS.start}.."
              f"{STEADINESS_SEEDS.stop - 1}, {seconds} s each")
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}"
              f" {'bound':>6s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            ok = spread <= bound / 3 or name == "setup_s" and spread <= bound
            all_ok = all_ok and ok
            print(f"  {name:32s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
                  f" {bound:>6} {'ok' if ok else 'WIDE'}")
    return 0 if all_ok else 1


def self_test(binary):
    result, err = run_once(binary, "serve-zipf-audit", 42, 1, 0, ["--corrupt-hottest"])
    share = result["failed"] / result["attempted"]
    print(f"self-test: corrupted hottest key -> correct={result['correct']}, "
          f"failed_op_share={share:.6g} ({result['failed']} of {result['attempted']} ops)")
    if result["correct"] or share <= 0:
        sys.stderr.write(err)
        print("self-test FAILED: the corrupted history went unnoticed")
        return 1
    print("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.steadiness:
        if args.trace:
            fail("--steadiness measures the end-to-end metrics (--trace 0) only", 2)
        return steadiness(binary, spec, args)
    if not args.workload:
        fail("--workload is required", 2)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    result, err = run_once(binary, args.workload, args.seed, seconds, args.trace)
    sys.stderr.write(err)
    check_names(result, spec, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
