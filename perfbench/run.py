#!/usr/bin/env python3
"""Benchmark of the PRLC workspace: the file round trip, the N=10^6
persistence timeline and the Fig. 6 decoding curves, timed end to end
and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload file_2mib --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run it from the repository root. It builds the `perfbench` package (a
workspace of its own under perfbench/) in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs one process per workload,
prints every metric with its unit and direction, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
The metric definitions below are the single source of BENCHMARK.json.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def metric(name, unit, better, bound=None):
    m = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        m["bound"] = bound
    return m


SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {
            "name": "file_2mib",
            "why": "prlc encode/decode of a 2 MiB file: the only workload with shard I/O, "
            "payload-carrying elimination and on-disk overhead; the network layer is idle",
        },
        {
            "name": "timeline_1m",
            "why": "the N=10^6 prlc sim timeline: overlay build, churn and repair dominate "
            "and elimination does almost nothing",
        },
        {
            "name": "curve_fig6",
            "why": "the Fig. 6(a) Monte Carlo: wide PLC vs narrow SLC elimination, "
            "pure core/linalg/gf on the parallel runner, no I/O and no network",
        },
    ],
    "end_to_end": [
        metric("setup_s", "s", "lower", 0.25),
        metric("ok_ratio", "ratio", "higher", 0.01),
        metric("peak_rss_mb", "MB", "lower", 0.25),
        metric("op_ms", "ms", "lower", 0.25),
        metric("stage1_ms", "ms", "lower", 0.25),
        metric("stage2_ms", "ms", "lower", 0.25),
        metric("levels", "levels", "higher", 0.1),
    ],
    "per_layer": [
        metric("gf.axpy_mb_s.1k", "MB/s", "higher"),
        metric("gf.axpy_mb_s.row", "MB/s", "higher"),
        metric("gf.axpy.bytes", "bytes", "lower"),
        metric("gf.scale.bytes", "bytes", "lower"),
        metric("linalg.rref.rows", "count", "lower"),
        metric("linalg.rref.pivots", "count", "higher"),
        metric("linalg.rref.redundant", "count", "lower"),
        metric("linalg.useful_row_ratio", "ratio", "higher"),
        metric("core.encode_ms", "ms", "lower"),
        metric("core.decode_insert_ms", "ms", "lower"),
        metric("core.encode.nnz", "count", "lower"),
        metric("cli.shard_write_ms", "ms", "lower"),
        metric("cli.shard_read_ms", "ms", "lower"),
        metric("cli.bytes_written", "bytes", "lower"),
        metric("cli.bytes_read", "bytes", "lower"),
        metric("cli.stored_bytes_ratio", "ratio", "lower"),
        metric("net.ring_build_ms", "ms", "lower"),
        metric("net.churn_ms", "ms", "lower"),
        metric("net.predistribute_ms", "ms", "lower"),
        metric("net.refresh_ms", "ms", "lower"),
        metric("net.rng_draws.build", "count", "lower"),
        metric("net.rng_draws.churn", "count", "lower"),
        metric("net.messages.sent", "count", "lower"),
        metric("net.delivery_ratio", "ratio", "higher"),
        metric("net.retries", "count", "lower"),
        metric("net.event.nodes_touched", "count", "lower"),
        metric("net.refresh.repaired", "count", "higher"),
        metric("sim.run_ms", "ms", "lower"),
        metric("sim.decode_levels_ms", "ms", "lower"),
        metric("sim.runner.parallel_efficiency", "ratio", "higher"),
        metric("obs.trace_overhead", "ratio", "lower"),
        metric("unattributed_ms", "ms", "lower"),
    ],
}

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class BenchError(Exception):
    pass


def check_spec_file():
    path = ROOT / "BENCHMARK.json"
    try:
        on_disk = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    if on_disk != SPEC:
        raise BenchError(
            "BENCHMARK.json differs from the spec in perfbench/run.py; "
            "regenerate it with --write-spec"
        )


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"
    if not binary.is_file():
        raise BenchError(f"no binary at {binary}")
    return binary


def commit():
    """The git revision of the checkout, or "unknown" outside a clone."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(binary, name, args, rev):
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--commit", rev]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{name} did not finish within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{name} exited with code {proc.returncode}")
    env = result = None
    for line in out.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("result "):
            result = json.loads(line[7:])
        else:
            print(line)
    if env is None or result is None:
        raise BenchError(f"{name} printed no result")
    kind = "per_layer" if args.trace else "end_to_end"
    want = [m["name"] for m in SPEC[kind]]
    got = result["metrics"]
    if sorted(got) != sorted(want):
        raise BenchError(
            f"{name} reported metrics {sorted(set(got) ^ set(want))} "
            f"that differ from the {kind} list"
        )
    bad = [k for k, v in got.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        raise BenchError(f"{name} reported non-finite metrics {bad}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for m in SPEC[kind]:
        bound = f"  bound {m['bound']}" if "bound" in m else ""
        print(f"  {m['name']:<32} {got[m['name']]:>16.6f} {m['unit']:<6} "
              f"{m['better']} is better{bound}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from the spec and exit")
    args = ap.parse_args()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        check_spec_file()
        binary = build()
        rev = commit()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            print(f"== {name} (seed {args.seed}, {args.seconds} s, "
                  f"{'traced' if args.trace else 'untraced'})")
            results[name] = run_workload(binary, name, args, rev)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}

    def wrap(metrics, prefix=""):
        return {prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    if len(results) == 1:
        (res,) = results.values()
        metrics = wrap(res["metrics"])
    else:
        metrics = {}
        for name, res in results.items():
            metrics.update(wrap(res["metrics"], f"{name}."))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
