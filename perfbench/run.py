"""bideriv benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep, identities, cli (see workloads.py).  Each
is a closed loop: one caller, the next task starts after the previous one
ends; the cli workload spawns one child at a time.

--trace 0 runs one warm-up round, then whole rounds of tasks until S seconds
have been timed, and reports the end-to-end metrics.  --trace 1 runs a
warm-up round and then the workload's fixed traced rounds twice, untraced
then traced, and reports the per-layer metrics.  Every
output is checked after the timed loop.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up runs per measurement (this process plus fresh interpreters): at least
# SETUP_SAMPLES[0], then more until SETUP_WALL_S of wall time has gone into them,
# at most SETUP_SAMPLES[1].  Cheap set-ups thus get more samples for their median.
SETUP_SAMPLES = (11, 41)
SETUP_WALL_S = 3.0
INTERP_SAMPLES = 11


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout("task exceeded its wall limit")


def setup(name: str, seed: int, root: str):
    """Import bideriv from ./src, generate the inputs and precompute witnesses."""
    start = perf_counter()
    bd = importlib.import_module("bideriv")
    import workloads

    workload = workloads.BUILDERS[name](bd, seed, root)
    workload.prebuild()
    return bd, workload, perf_counter() - start


class _Failed:
    def __init__(self, message: str):
        self.message = message


def run_rounds(workload, rounds, seconds: float | None = None, tracer=None) -> dict:
    """Closed loop over whole rounds of tasks, taken from the iterable `rounds`.

    Only the rounds are timed: a round still to be built is built off the
    clock, and the collector is run before it starts.  Each round's outputs
    are checked right after it, off the clock and with the tracer removed.
    The loop stops when `rounds` runs out, or at the first round boundary
    once the timed total reaches `seconds`.
    """
    in_process = workload.launcher is None
    times, walls, errors = [], [], []
    failed = 0
    for tasks in rounds:
        if seconds is not None and sum(walls) >= seconds:
            break
        outs = []
        # Keep the inputs out of the collector's full passes, so their pauses
        # reflect the library's garbage.
        gc.collect()
        gc.freeze()
        round_start = perf_counter()
        for task in tasks:
            if tracer is not None:
                tracer.task = len(times) + len(outs)
            t0 = perf_counter()
            try:
                if in_process:
                    signal.setitimer(signal.ITIMER_REAL, workload.limit_s)
                try:
                    out = task.run()
                finally:
                    if in_process:
                        signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:  # any failure counts; the run goes on
                out = _Failed(f"{task.kind}: {type(exc).__name__}: {exc}")
            outs.append((out, perf_counter() - t0))
        walls.append(perf_counter() - round_start)
        if tracer is not None and in_process:
            tracer.uninstall()
        for task, (out, dt) in zip(tasks, outs):
            message = out.message if isinstance(out, _Failed) else check(task, out)
            if message:
                errors.append(message)
                failed += 1
                dt = workload.limit_s  # a failed task misses any latency limit
            times.append(dt)
        if tracer is not None and in_process:
            tracer.install()
    return {"times": times, "walls": walls, "failed": failed, "errors": errors,
            "per_round": len(times) // max(len(walls), 1)}


def check(task, out) -> str | None:
    try:
        return task.check(out)
    except Exception as exc:
        return f"{task.kind}: check raised {type(exc).__name__}: {exc}"


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_sample(name: str, seed: int, root: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=root, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def src_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "bideriv")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def summary(lines: list[str], result: dict):
    attempted = len(result["times"])
    lines.append(f"attempted: {attempted} tasks in {len(result['walls'])} rounds "
                 f"({sum(result['walls']):.3f} s timed); failed: {result['failed']}; "
                 f"fail_ratio: {result['failed'] / attempted:.6f}")
    lines.extend(f"failure: {message}" for message in sorted(set(result["errors"]))[:20])


def end_to_end(args, root, workload, setup_first: float, lines: list[str]):
    warm = run_rounds(workload, [workload.round(0)])  # checked and counted, not timed
    result = run_rounds(workload, map(workload.round, itertools.count(1)), seconds=args.seconds)
    who = resource.RUSAGE_SELF if workload.launcher is None else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    summary(lines, result)
    times = result["times"]
    tail_s, pct = tail(times)
    round_s = statistics.median(result["walls"])
    lines.append(f"task latency: p50 {statistics.median(times) * 1000:.3f} ms, "
                 f"p{pct:.2f} {tail_s * 1000:.3f} ms (10 of {len(times)} samples beyond); "
                 f"median round {round_s:.4f} s for {result['per_round']} tasks")
    if workload.launcher is not None:
        lines.append(known_defect_probe(workload.launcher))
    setups = [setup_first]
    start = perf_counter()
    while len(setups) < SETUP_SAMPLES[1] and (len(setups) < SETUP_SAMPLES[0]
                                              or perf_counter() - start < SETUP_WALL_S):
        setups.append(setup_sample(args.workload, args.seed, root))
    lines.append(f"setup samples ({len(setups)}, s): {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(times) / sum(result["walls"]), "1/s"),
        "task_p50_ms": (statistics.median(times) * 1000, "ms"),
        "task_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    total = {"times": warm["times"] + times, "failed": warm["failed"] + result["failed"]}
    return total, metrics


def known_defect_probe(launcher) -> str:
    import workloads

    args, stdin, expected = workloads.KNOWN_DEFECT
    code, _, err = launcher.run(args, stdin)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    state = "fixed" if code == expected else "still failing"
    return (f"known-defect probe (untimed, outside the mix): bideriv {' '.join(args)} "
            f"<<< {stdin.decode()!r}: exit {code}, documented {expected} ({state}) {last}")


def traced(args, root, workload, lines: list[str]):
    import tracer as tracing

    warm = run_rounds(workload, [workload.round(0)])
    # The traced pass reruns the untraced pass's rounds, so the two time the same work.
    rounds = [workload.round(i) for i in range(1, workload.trace_rounds + 1)]
    plain = run_rounds(workload, rounds)
    tracer = tracing.Tracer()
    if workload.launcher is None:
        tracer.install()
    else:
        workload.launcher.tracer = tracer
    try:
        spans = run_rounds(workload, rounds, tracer=tracer)
    finally:
        tracer.uninstall()
        if workload.launcher is not None:
            workload.launcher.tracer = None
    summary(lines, spans)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = sum(spans["walls"]) / sum(plain["walls"])
    for key in ("cli.interp_ms", "cli.import_ms", "cli.parse_args_ms", "cli.main_ms"):
        metrics[key] = 0.0
    if workload.launcher is not None:
        launcher = workload.launcher
        interp = []
        for _ in range(INTERP_SAMPLES):
            t0 = perf_counter()
            launcher.spawn([sys.executable, "-c", "pass"])
            interp.append((perf_counter() - t0) * 1000)
        metrics["cli.interp_ms"] = statistics.median(interp)
        for key in ("import_ms", "parse_args_ms", "main_ms"):
            samples = [s[key] for s in launcher.child_stats if key in s]
            metrics[f"cli.{key}"] = statistics.median(samples) if samples else 0.0
    if tracer.missing:
        lines.append(f"trace: not found, reported as 0: {', '.join(tracer.missing)}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.json.gz")
    tracer.write(path)
    lines.append(f"spans: {len(tracer.name)} written to {os.path.relpath(path, root)}")
    passes = (warm, plain, spans)
    result = {"times": [t for p in passes for t in p["times"]],
              "failed": sum(p["failed"] for p in passes)}
    return result, {name: (metrics[name], unit) for name, unit, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "identities", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bideriv", "__init__.py")):
        print("perfbench: no src/bideriv here; run from the root of a bideriv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    bd, workload, setup_s = setup(args.workload, args.seed, root)
    if not os.path.abspath(bd.__file__).startswith(os.path.join(src, "")):
        print(f"perfbench: imported bideriv from {bd.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    signal.signal(signal.SIGALRM, _alarm)

    import gen

    lines = [f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}",
             f"inputs: {workload.size}",
             f"inputs digest: {gen.digest(workload.inputs)} (rounds 0-{len(workload.inputs) - 1}; "
             f"round i is drawn from the seed and i alone)",
             f"src_lines: {src_lines(root)} (src/bideriv, informational)"]
    if args.trace:
        result, metrics = traced(args, root, workload, lines)
    else:
        result, metrics = end_to_end(args, root, workload, setup_s, lines)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": len(result["times"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
