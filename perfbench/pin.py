"""Record the outputs the benchmark pins, from the current tree.

Run from the repository root::

    python3 perfbench/pin.py --seeds 0-31 [--workload NAME ...] [--jobs 2]

Each (workload, seed) runs once, untraced, and its checked outputs --
wire bytes, message count and the final-RMSE float bits for training,
trace/ring digests and request counts for serving -- are merged into
``perfbench/pins.json``.  Re-pin only for a change that is meant to
alter program output, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, WORKLOADS, check, load_pins, spawn


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    root = os.getcwd()
    pins = load_pins()
    jobs = [(w, s) for w in args.workload or WORKLOADS for s in args.seeds]
    cpus = sorted(os.sched_getaffinity(0))[: max(1, args.jobs)]

    def run_share(k: int):
        # Worker thread k runs every len(cpus)-th job, pinned to cpus[k].
        return [spawn(root, w, s, cpus[k]) for w, s in jobs[k::len(cpus)]]

    with ThreadPoolExecutor(max_workers=len(cpus)) as pool:
        shares = list(pool.map(run_share, range(len(cpus))))
    results = [None] * len(jobs)
    for k, share in enumerate(shares):
        results[k::len(cpus)] = share
    failed = 0
    for (workload, seed), result in zip(jobs, results):
        if not result.get("ok"):
            print(f"{workload} seed {seed}: failed\n{result.get('error')}", file=sys.stderr)
            failed += 1
            continue
        outputs = result["outputs"]
        if workload.startswith("serve"):
            pins["ring_digest"] = outputs["ring_digest"]
        problems = check(workload, seed, result, None, {**pins, "seeds": {}})
        if problems:
            print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
            failed += 1
            continue
        pins["seeds"].setdefault(workload, {})[str(seed)] = outputs
        print(f"{workload} seed {seed}: {outputs}")
    pins["seeds"] = {w: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                     for w, v in sorted(pins["seeds"].items())}
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
