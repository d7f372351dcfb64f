"""One benchmark iteration in a fresh interpreter.

Usage (from the checkout root, normally spawned by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N --cpu C --t0 T [--trace PATH]

``--t0`` is the parent's ``time.perf_counter()`` reading just before it
spawned this process (CLOCK_MONOTONIC, shared by all processes on
Linux), so set-up time includes interpreter start and ``import repro``.
The process pins itself to CPU ``C`` before importing anything heavy.
With ``--trace PATH`` the layer hooks are installed after the imports,
the spans are written to PATH, and per-layer metrics are reported.
Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    import workloads  # imports repro and numpy
    from layers import COUNT_HOOKS, SPAN_HOOKS, layer_metrics
    from spans import Tracer

    marks = {"import_end": time.perf_counter()}

    def mark(name: str) -> None:
        marks[name] = time.perf_counter()

    tracer = Tracer().install(SPAN_HOOKS, COUNT_HOOKS) if args.trace else None
    out = {"ok": False}
    try:
        try:
            work, fingerprint = workloads.WORKLOADS[args.workload](args.seed, mark)
        finally:
            if tracer is not None:
                tracer.restore()
        out["outputs"] = fingerprint()
        out["ok"] = True
    except Exception:  # the iteration failed; the parent counts it
        out["error"] = traceback.format_exc(limit=8)
        print(json.dumps(out))
        return 1

    setup_wall = marks["setup_end"] - marks["import_end"]
    run_wall = marks["run_end"] - marks["setup_end"]
    out.update(
        work=work,
        setup_s=marks["setup_end"] - args.t0,
        setup_wall_s=setup_wall,
        run_wall_s=run_wall,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        summary = tracer.summary(split_at=marks["setup_end"])
        outputs = out["outputs"]
        balancer = {k: outputs[k] for k in ("offered", "failover", "shed") if k in outputs}
        layers = layer_metrics(summary, tracer.counts, tracer.replay_costs(), balancer)
        setup_self = sum(row["setup_self_s"] for row in summary.values())
        run_self = sum(row["run_self_s"] for row in summary.values())
        per_span, per_count = tracer.wrapper_costs()
        layers.update({
            "trace.spans": len(tracer.spans),
            "trace.wrapper_s": len(tracer.spans) * per_span
            + sum(slot[0] for slot in tracer.counts.values()) * per_count,
            "trace.setup.wall_s": setup_wall,
            "trace.setup.unattributed_s": setup_wall - setup_self,
            "trace.run.wall_s": run_wall,
            "trace.run.unattributed_s": run_wall - run_self,
        })
        out["layers"] = layers
        out["table"] = {
            name: {k: row[k] for k in ("calls", "total_s", "self_s", "setup_self_s",
                                       "run_self_s", "size")}
            for name, row in summary.items()
        }
        out["counts"] = {name: slot[:2] for name, slot in tracer.counts.items()}
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
