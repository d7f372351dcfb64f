"""REX wall-clock benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-data-128 --seed 1 --seconds 22 --trace 0

Each iteration runs in a fresh interpreter (``worker.py``) pinned to one
CPU, so set-up time includes interpreter start and ``import repro`` and
peak memory is per iteration.  Iterations repeat until ``--seconds`` have passed (at
least three; with ``--trace 1`` at least two untraced/traced pairs).
With ``--trace 0`` the result carries the end-to-end metrics, medians
over the iterations; with ``--trace 1`` it carries the per-layer
metrics of the traced iterations, and the untraced iterations give the
tracing overhead.  Every iteration's outputs are checked (see
``check``); the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("train-data-128", "train-model-32", "sim-model-610", "serve-fleet-8x2")
#: Minimum iterations per run (set-up is reported as a median of these).
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
#: No iteration starts after this many seconds, so a run ends in time.
START_CUTOFF_S = 100.0
ITERATION_TIMEOUT_S = 60.0
#: Final test RMSE above this means training diverged (ratings 0.5..5).
RMSE_CEILING = 1.3
#: Environment every iteration runs under.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OUT_DIR = ".perfbench"


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"  # each iteration is pinned to one CPU: nproc is 1 there
    env["REPRO_NO_CACHE"] = "1"  # a cached preset must never read as a speed-up
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root: str, workload: str, seed: int, cpu: int,
          trace_path: Optional[str] = None) -> dict:
    """Run one iteration in a fresh interpreter pinned to ``cpu``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--cpu", str(cpu)]
    if trace_path is not None:
        cmd += ["--trace", trace_path]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=ITERATION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"iteration exceeded {ITERATION_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result["traced"] = trace_path is not None
    return result


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def check(workload: str, seed: int, it: dict, reference: Optional[dict], pins: dict) -> List[str]:
    """Problems with one iteration's outputs (empty when correct)."""
    if not it.get("ok"):
        last = (it.get("error") or "?").strip().splitlines() or ["?"]
        return [f"iteration failed: {last[-1]}"]
    out = it["outputs"]
    problems = []
    pinned = pins["seeds"].get(workload, {}).get(str(seed))
    if pinned is not None and out != pinned:
        problems.append(f"outputs {out} differ from the pinned {pinned}")
    if reference is not None and out != reference:
        problems.append(f"outputs {out} differ from this run's first iteration {reference}")
    if workload.startswith("serve"):
        if out["ring_digest"] != pins["ring_digest"]:
            problems.append(f"ring digest {out['ring_digest']} is not the pinned one")
        if out["offered"] != out["completed"] + out["shed"]:
            problems.append("offered != completed + shed")
        if out["routing_errors"] != 0:
            problems.append(f"{out['routing_errors']} routing errors")
        if out["completed"] <= 0:
            problems.append("nothing completed")
    else:
        rmse = float.fromhex(out["rmse_bits"])
        if not 0.0 < rmse < RMSE_CEILING:
            problems.append(f"final RMSE {rmse} outside (0, {RMSE_CEILING})")
        if out["wire_bytes"] <= 0 or out["messages"] <= 0:
            problems.append("no traffic")
        if it.get("traced") and workload.startswith("train"):
            layers = it["layers"]
            if layers["net.bytes"] != out["wire_bytes"]:
                problems.append(f"traced net.bytes {layers['net.bytes']} != wire_bytes")
            if layers["net.messages"] != out["messages"]:
                problems.append(f"traced net.messages {layers['net.messages']} != messages")
    return problems


def end_to_end(workload: str, its: List[dict], failed: int) -> Dict[str, tuple]:
    """Every end-to-end figure of a run: name -> (value, unit, gated).

    Only the gated ones go into the result line; the rest are printed.
    """
    ok = [it for it in its if it.get("ok")]

    def median(key):
        return statistics.median(it[key] for it in ok)

    rates = [it["work"] / it["run_wall_s"] for it in ok]
    out = {
        "setup_s": (median("setup_s"), "s", True),
        "throughput_per_s": (statistics.median(rates), "1/s", True),
        "peak_rss_mib": (median("peak_rss_mib"), "MiB", True),
    }
    first = ok[0]["outputs"]
    if workload.startswith("serve"):
        out["serve_wall_rps"] = (out["throughput_per_s"][0], "req/s", False)
        out["failed_share"] = (
            (first["shed"] + first["routing_errors"]) / first["offered"], "ratio", False)
        out["serve_model_p99_ms"] = (
            float.fromhex(first["p99_ms_bits"]), "ms(cost-model)", False)
    else:
        out["train_node_epochs_per_s"] = (out["throughput_per_s"][0], "node-epochs/s", False)
        out["final_rmse"] = (float.fromhex(first["rmse_bits"]), "RMSE", False)
        out["wire_bytes"] = (first["wire_bytes"], "bytes", False)
        out["failed_share"] = (failed / len(its), "ratio", False)
    return out


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Median per-layer metrics over traced iterations, plus overhead.

    Overhead is the median over untraced/traced pairs of the difference
    in set-up plus run wall time.
    """
    out = {
        name: statistics.median(it["layers"][name] for it in traced)
        for name, _ in PER_LAYER if not name.startswith("trace.overhead")
    }
    walls = [(u["setup_wall_s"] + u["run_wall_s"], t["setup_wall_s"] + t["run_wall_s"])
             for u, t in zip(untraced, traced)]
    out["trace.overhead_s"] = statistics.median(t - u for u, t in walls)
    out["trace.overhead_ratio"] = statistics.median((t - u) / u for u, t in walls)
    return out


def print_layer_table(traced: List[dict]) -> None:
    """Layers ranked by median self time, with each phase's accounting."""
    names = sorted({name for it in traced for name in it["table"]})

    def med(name, key):
        return statistics.median(it["table"].get(name, {}).get(key, 0) for it in traced)

    rows = sorted(names, key=lambda n: -med(n, "self_s"))
    print(f"{'layer':<16}{'calls':>10}{'total_s':>10}{'self_s':>10}"
          f"{'setup_self':>12}{'run_self':>10}{'bytes/items':>14}")
    for name in rows:
        print(f"{name:<16}{med(name, 'calls'):>10.0f}{med(name, 'total_s'):>10.4f}"
              f"{med(name, 'self_s'):>10.4f}{med(name, 'setup_self_s'):>12.4f}"
              f"{med(name, 'run_self_s'):>10.4f}{med(name, 'size'):>14.0f}")
    counts = traced[0]["counts"]
    for name, (calls, hits) in sorted(counts.items()):
        print(f"{name:<16}{calls:>10} calls (counted, no clock), hits {hits}")
    for phase in ("setup", "run"):
        wall = statistics.median(it["layers"][f"trace.{phase}.wall_s"] for it in traced)
        rest = statistics.median(it["layers"][f"trace.{phase}.unattributed_s"] for it in traced)
        print(f"phase {phase}: traced wall {wall:.4f} s = layer self {wall - rest:.4f} s"
              f" + outside any layer {rest:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    pins = load_pins()
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    its: List[dict] = []
    want = 2 * MIN_TRACED_PAIRS if args.trace else MIN_ITERATIONS
    while (len(its) < want or time.perf_counter() - start < args.seconds
           or (args.trace and len(its) % 2)):
        if time.perf_counter() - start > START_CUTOFF_S:
            break
        traced = bool(args.trace) and len(its) % 2 == 1
        trace_path = (os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}"
                                   f"-{len(its)}.json") if traced else None)
        # Iterations take turns on the CPUs (both halves of a traced pair on
        # the same one): each CPU's speed drifts on its own, and a median
        # over iterations on every CPU is steadier than one over a single CPU.
        turn = len(its) // 2 if args.trace else len(its)
        its.append(spawn(root, args.workload, args.seed, cpus[turn % len(cpus)], trace_path))

    reference = next((it["outputs"] for it in its if it.get("ok")), None)
    failed = 0
    for index, it in enumerate(its):
        if it.get("ok"):
            print(f"iteration {index}{' (traced)' if it['traced'] else ''}: "
                  f"setup {it['setup_s']:.4f} s, run {it['run_wall_s']:.4f} s, "
                  f"{it['work'] / it['run_wall_s']:.2f} work/s, rss {it['peak_rss_mib']:.1f} MiB")
        problems = check(args.workload, args.seed, it, reference, pins)
        for problem in problems:
            print(f"check failed (iteration {index}): {problem}")
        failed += bool(problems)
    pinned = str(args.seed) in pins["seeds"].get(args.workload, {})
    print(f"perfbench {args.workload} seed={args.seed}: {len(its)} iterations, "
          f"{failed} failed; outputs "
          + ("checked against pins" if pinned else "not pinned for this seed: checked for "
             "determinism and invariants"))
    if not any(it.get("ok") for it in its):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    if args.trace:
        pairs = [(u, t) for u, t in zip(its[::2], its[1::2]) if u.get("ok") and t.get("ok")]
        traced = [t for _, t in pairs]
        if not traced:
            print("perfbench: no traced iteration succeeded", file=sys.stderr)
            return 1
        print_layer_table(traced)
        values = per_layer(traced, [u for u, _ in pairs])
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s measured "
              f"({100 * values['trace.overhead_ratio']:.1f}% of untraced set-up + run); "
              f"wrapper cost estimate {values['trace.wrapper_s']:.4f} s")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        figures = end_to_end(args.workload, its, failed)
        for name, (value, unit, gated) in figures.items():
            print(f"{name:<26}{value:>18.6g} {unit}{'' if gated else '  (not gated)'}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, gated) in figures.items() if gated}
    print(json.dumps({"correct": failed == 0, "attempted": len(its), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
