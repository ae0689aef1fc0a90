#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py at --scale tiny five times
(untraced twice at 2 threads and once at 1 thread, traced at 2 threads and
at 1 thread) and asserts that:

* every run is correct, which includes the pinned output digest in
  perfbench/pins.txt;
* every end-to-end metric of BENCHMARK.json is measured on every workload,
  and every per-layer metric on at least one workload (a per-kind message
  count only when the tiny networks send that kind);
* the deterministic metrics (counts, ratios of counts, quality metrics and
  the output digest) are identical across the runs, so across repetition,
  thread count and tracing.

Exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

SEED = 1
SECONDS = "0.5"
# Metrics derived from wall-clock time or memory, or from how many
# repetitions fit in the time budget: everything else must repeat exactly.
TIMED_UNITS = {"s", "ms", "us", "1/s", "MB"}
TIMED_NAMES = {"core.build_coverage", "traffic.shard_speedup", "trace.spans"}


def run(workload, threads, trace):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
        "--trace", str(trace), "--scale", "tiny", "--threads", str(threads),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-tiny-seed{SEED}-trace{trace}"
    with open(os.path.join("perfbench", "out", f"result-{stem}.json")) as f:
        record = json.load(f)
    assert last["correct"], f"{workload} threads={threads} trace={trace}: {record['errors']}"
    assert set(last["metrics"]) == set(record["metrics"])
    return record


def deterministic(record):
    out = {
        name: m["value"]
        for name, m in record["measured"].items()
        if m["unit"] not in TIMED_UNITS and name not in TIMED_NAMES
    }
    out["digest"] = record["meta"]["digest"]
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = {m["name"] for m in bench["per_layer"]}
    layer_seen = set()
    failures = []
    for w in (w["name"] for w in bench["workloads"]):
        runs = {
            "untraced, 2 threads": run(w, 2, 0),
            "untraced, 2 threads, again": run(w, 2, 0),
            "untraced, 1 thread": run(w, 1, 0),
            "traced, 2 threads": run(w, 2, 1),
            "traced, 1 thread": run(w, 1, 1),
        }
        for label, rec in runs.items():
            if rec["meta"]["trace"]:
                layer_seen |= set(rec["measured"]) & per_layer
            else:
                missing = [m for m in end_to_end if m not in rec["measured"]]
                if missing:
                    failures.append(f"{w} ({label}) does not measure {missing}")
        reference = deterministic(runs["untraced, 2 threads"])
        for label, rec in runs.items():
            got = deterministic(rec)
            for name in sorted(set(reference) & set(got)):
                if got[name] != reference[name]:
                    failures.append(
                        f"{w}: {name} is {got[name]!r} ({label}) but {reference[name]!r} "
                        "(untraced, 2 threads)"
                    )
        print(f"{w}: {len(runs)} runs, digest {reference['digest']}, "
              f"{len(reference) - 1} deterministic metrics compared")
    # A message kind is counted only when the protocols send it, and the
    # tiny networks may never need some kinds (an LDel Reject, say).
    never = sorted(m for m in per_layer - layer_seen if not m.startswith("sim.kind."))
    if not any(m.startswith("sim.kind.") for m in layer_seen):
        never.append("sim.kind.*")
    if never:
        failures.append(f"per-layer metrics no workload measures: {never}")
    for f in failures:
        print(f"FAIL: {f}")
    print("self-test " + ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
