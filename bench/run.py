"""teamlqg benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Each repetition is a fresh worker process (bench/worker.py) that imports
the package from ./src, builds the workload's inputs from the seed, runs
the fixed task list once through ``teamlqg.cli.main``, and then checks every
output against a reference.  Repetitions run back to back, one at a time;
their number is fixed by the workload and --seconds (``worker_count``), so
the same seed always gives the same work.  With --trace 0 every worker is
untraced and the end-to-end metrics are medians over workers.  With
--trace 1 untraced and traced workers alternate; the per-layer metrics come
from the traced ones and trace.overhead_frac compares the two.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the human-readable
report: environment, each task's verdict and input properties, and every
metric with its unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYER_DOC  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 170
MIN_WORKERS = 2                 # per kind (untraced, traced) in one run

# One worker's spawn-to-exit time on the reference machine (see README).  A
# run starts a number of workers fixed by --seconds, never by the clock, so
# that its attempted and failed counts depend on the seed alone; FILL leaves
# room for the machine running slower than the reference.
WORKER_S = {
    "mc-rollouts": 4.3,
    "coupling-solve": 6.5,
    "stationary": 1.8,
    "verify-checks": 8.0,
}
FILL = 0.8

END_TO_END = {                  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layer groups each workload is meant to stress, by the self-time metrics
# that make them up; the traced report prints their share of self time.
STRESSED = {
    "mc-rollouts": ("rng.draw", "sim.rollout", "delayed.estimator"),
    "coupling-solve": ("tree.adjoint", "tree.coupling"),
    "stationary": ("riccati.dare", "delayed.rank", "delayed.infinite"),
    "verify-checks": ("moments", "sim.checks"),
}


WORKLOADS = tuple(STRESSED)


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, trace, scale=1.0, trace_out=None,
               check_cache=None):
    t_spawn = time.perf_counter()
    cmd = [sys.executable, WORKER, workload, str(seed), repr(t_spawn),
           "--scale", repr(scale)]
    if check_cache:
        cmd += ["--check-cache", check_cache]
    if trace:
        cmd.append("--trace")
        if trace_out:
            cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {workload} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def warm_up():
    """Byte-compiles the sources and loads the libraries once, untimed."""
    code = ("import sys; sys.path[:0] = [{!r}, {!r}]; import worker, checks, "
            "scipy.linalg").format(os.path.join(ROOT, "src"), HERE)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   capture_output=True, timeout=WORKER_TIMEOUT_S)


def worker_count(workload, seconds, trace):
    """Workers of each kind (untraced, traced) one run starts."""
    kinds = 2 if trace else 1
    return max(MIN_WORKERS, round(seconds * FILL / WORKER_S[workload] / kinds))


def measure(workload, seed, seconds, trace):
    """Runs a fixed number of workers, alternating kinds when tracing.

    All workers of the run share one check cache: every worker's outputs
    are checked, but a verdict is computed once per distinct output."""
    kinds = (False, True) if trace else (False,)
    work_root = os.path.join(ROOT, ".bench_work")
    trace_out = None
    if trace:
        trace_dir = os.path.join(work_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    os.makedirs(work_root, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="checks-", dir=work_root)
    runs = {k: [] for k in kinds}
    try:
        for _ in range(worker_count(workload, seconds, trace)):
            for kind in kinds:
                runs[kind].append(run_worker(workload, seed, kind,
                                             trace_out=trace_out,
                                             check_cache=cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _rollouts_requested(tasks):
    return sum(t["props"].get("rollouts_total", t["props"].get("rollouts", 0))
               for t in tasks)


def summarize(workload, seed, runs, trace):
    untraced = runs[False]
    every = [r for kind in runs.values() for r in kind]
    records = [t for r in every for t in r["tasks"]]
    attempted = len(records)
    failed = sum(not t["ok"] for t in records)
    correct = not any(t["wrong"] for t in records)

    env = dict(untraced[0]["env"], git_commit=git_commit(), workload_seed=seed)
    print(f"== {workload}  seed {seed}  untraced workers {len(untraced)}"
          + (f"  traced workers {len(runs[True])}" if trace else ""))
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("tasks (median seconds over untraced workers; verdict over all):")
    for j, task in enumerate(untraced[0]["tasks"]):
        recs = [r["tasks"][j] for r in every]
        bad = [t for t in recs if not t["ok"]]
        verdict = "PASS" if not bad else "FAIL"
        secs = statistics.median(r["tasks"][j]["seconds"] for r in untraced)
        detail = (bad or recs)[0]["detail"].strip().splitlines()[-1]
        print(f"  [{verdict} {len(recs) - len(bad)}/{len(recs)}] "
              f"{task['name']:<28} {secs:8.4f} s  {detail}")
        print(f"      props: {json.dumps(recs[0]['props'], sort_keys=True)}")

    e2e = {name: statistics.median(r[name] for r in untraced)
           for name in END_TO_END}
    print("end-to-end metrics (median over untraced workers [q1, q3]):")
    for name, unit in END_TO_END.items():
        q1, q3 = quartiles([r[name] for r in untraced])
        print(f"  {name:<16} {e2e[name]:12.6g} {unit:<5} [{q1:.6g}, {q3:.6g}]")
    if workload == "mc-rollouts":
        rollouts = _rollouts_requested(untraced[0]["tasks"])
        print(f"  {'rollouts_per_s':<16} {rollouts / e2e['wall_s']:12.6g} 1/s"
              f"   ({rollouts} rollouts requested / wall_s)")
    print(f"  {'ops_failed_frac':<16} {failed / attempted:12.6g} ratio"
          f"   ({failed} of {attempted} tasks)")

    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        metrics = _layer_metrics(workload, runs, e2e["wall_s"])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_metrics(workload, runs, wall_untraced):
    traced = runs[True]
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        layers[name] = (statistics.median(values) if name.endswith(".self_s")
                        else values[0])
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    layers["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))

    print("per-layer metrics (traced workers; self times are medians):")
    for name, (unit, _) in LAYER_DOC.items():
        share = (f"  {100 * layers[name] / total_self:5.1f}% of self time"
                 if name.endswith(".self_s") and total_self else "")
        print(f"  {name:<28} {layers[name]:14.6g} {unit:<6}{share}")
    stressed = sum(layers[f"{layer}.self_s"] for layer in STRESSED[workload])
    print(f"stressed layers {'+'.join(STRESSED[workload])}: "
          f"{100 * stressed / total_self:.1f}% of {total_self:.4g} s self time")
    return {name: {"value": layers[name], "unit": LAYER_DOC[name][0]}
            for name in LAYER_DOC}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "teamlqg", "cli.py")):
        print(f"error: no teamlqg sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        warm_up()
        for workload in (WORKLOADS if args.workload == "all"
                         else (args.workload,)):
            runs = measure(workload, args.seed, args.seconds, args.trace)
            result = summarize(workload, args.seed, runs, args.trace)
            print(json.dumps(result), flush=True)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
