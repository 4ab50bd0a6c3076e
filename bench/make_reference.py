"""Regenerate `bench/reference.json`, the statistics the correctness gate
checks each run against.

    python3 bench/make_reference.py [--seeds 20] [--workload NAME ...]

For every workload it runs the pinned config once at each of the benchmark
seeds 900000, 900001, ... (package seeds 900000 * 10^9 onwards, far from the
seeds a benchmark run normally uses) and pools, per sweep point, the success rate,
a checkpoint round and the share of trials completed by it.  The checkpoint
is the pooled median completion round, or the median round among completed
trials when fewer than half complete.  Run it from the root of a source
checkout after a change that is meant to alter the completion law.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time

import run

FIRST_SEED = 900_000
Z = 5.0


def pooled_point(point: dict, completions: list) -> dict:
    n = len(completions)
    finished = sorted(c for c in completions if c is not None)
    effective = finished + [math.inf] * (n - len(finished))
    median = effective[int(0.5 * (n - 1))]
    if math.isfinite(median):
        checkpoint = median
    elif finished:
        checkpoint = finished[int(0.5 * (len(finished) - 1))]
    else:
        checkpoint = None
    success, cdf = run.point_stats(completions, checkpoint)
    return {"algo": point["algo"], "tau": point["tau"], "adversary": point["adversary"],
            "max_rounds": point["max_rounds"], "trials_pooled": n, "success_rate": success,
            "checkpoint_round": checkpoint, "cdf_at_checkpoint": cdf}


def reference_for(workload: str, seeds: int) -> list:
    deadline = time.perf_counter() + 3600.0
    out_dir = os.path.join(run.OUT, workload)
    os.makedirs(out_dir, exist_ok=True)
    points = None
    pooled: list = []
    for seed in range(FIRST_SEED, FIRST_SEED + seeds):
        base = seed * run.SEED_STRIDE
        if points is None:
            points = run.probe_setup(workload, base, deadline)["points"]
            pooled = [[] for _ in points]
        csv_path = os.path.join(out_dir, "reference.csv")
        code, _, _ = run.run_dualradio(workload, base, csv_path, deadline)
        if code != 0:
            raise run.BenchError(f"{workload} seed {seed}: exit {code}")
        with open(csv_path, "rb") as fh:
            split = run.split_points(fh.read(), points)
        if split is None:
            raise run.BenchError(f"{workload} seed {seed}: wrong CSV layout")
        offset = 0
        for j, (rows, point) in enumerate(zip(split, points)):
            err, completions, _ = run.parse_rows(rows, point, base, offset)
            if err:
                raise run.BenchError(f"{workload} seed {seed}: {err}")
            pooled[j] += completions
            offset += point["trials"]
    return [pooled_point(p, c) for p, c in zip(points, pooled)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    path = os.path.join(run.BENCH, "reference.json")
    ref = {"z": Z, "workloads": {}, "seeds": {}}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
        if not isinstance(ref.get("seeds"), dict):
            ref["seeds"] = {}
    seeds = ref.setdefault("seeds", {})
    for workload in args.workload or run.WORKLOADS:
        ref["workloads"][workload] = reference_for(workload, args.seeds)
        seeds[workload] = f"{FIRST_SEED}..{FIRST_SEED + args.seeds - 1}"
        print(workload, json.dumps(ref["workloads"][workload]))
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
