#!/usr/bin/env python3
"""Run one geospan benchmark workload and print its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny] [--threads T]

Builds the benchmark binary (the Cargo package in perfbench/, which depends
on the crates under crates/) into $CARGO_TARGET_DIR, default .bench_build,
then runs the workload. The binary measures and checks the outputs; this
script maps its result onto the metrics BENCHMARK.json declares, checks the
output digest against perfbench/pins.txt, adds run metadata, and writes the
full result to perfbench/out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Exits non-zero, printing no result, when the binary cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
PINS = os.path.join(BENCH_DIR, "pins.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout) and returns it."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    proc = run_checked(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "geospan-perfbench")


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def pinned_digest(workload, scale, seed):
    if not os.path.exists(PINS):
        return None
    with open(PINS) as f:
        for line in f:
            parts = line.split()
            if not line.startswith("#") and parts[:3] == [workload, scale, str(seed)]:
                return parts[3]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"spans-{stem}.jsonl")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--threads", str(args.threads),
        "--spans", spans_path,
    ]
    proc = run_checked(cmd, RUN_TIMEOUT_S, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the benchmark binary exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark binary printed no result line")

    measured = result["metrics"]
    errors = list(result["errors"])
    digest = result["digest"]
    pin = pinned_digest(args.workload, args.scale, args.seed)
    if pin is not None and digest != pin:
        errors.append(f"output digest {digest} differs from the pinned {pin}")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if args.trace:
                # The layer is not exercised by this workload.
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
                continue
            errors.append(f"metric {m['name']} was not measured")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} measured in {got['unit']}, declared {m['unit']}")
        if got["value"] is None:
            errors.append(f"metric {m['name']} is not a finite number")
            continue
        if not args.trace and got["value"] <= 0:
            errors.append(f"metric {m['name']} is {got['value']}, not positive")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    meta = dict(result["meta"])
    meta.update(
        commit=commit(),
        rustc=rustc_version(),
        host_cores=os.cpu_count(),
        digest=digest,
        pinned_digest=pin,
    )
    record = {
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": errors,
        "meta": meta,
        "metrics": metrics,
        "measured": measured,
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for name, m in sorted(measured.items()):
        print(f"# {name:36} {m['value']!r:>24} {m['unit']}")
    for e in errors:
        print(f"# CHECK FAILED: {e}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
