"""One fresh workload process: set up, run the task list once, check outputs.

Usage (normally started by run.py):
    python3 bench/worker.py WORKLOAD SEED T_SPAWN [--scale X]
                            [--check-cache DIR]
                            [--trace [--trace-out SPANS.json]]

T_SPAWN is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so setup_s covers interpreter start-up and imports.  Prints one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import teamlqg  # noqa: E402
from teamlqg import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv):
    """Calls the CLI in-process; returns (exit code, captured output, error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue(), None
    except Exception as exc:  # a crash is a failed task, not a failed run
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def environment():
    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    return env


def _blas_threads():
    """BLAS thread count from threadpoolctl when it is installed; otherwise
    None, and the *_NUM_THREADS variables and cpu_count tell the reader."""
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return None
    return max((p["num_threads"] for p in threadpool_info()
                if p.get("user_api") == "blas"), default=None)


def checked(task, cache_dir):
    """``task.check()``, or the verdict an earlier worker of the same run
    stored in ``cache_dir`` for byte-identical input files."""
    if cache_dir is None:
        return task.check()
    key = hashlib.sha256(task.name.encode())
    for path in task.check.reads:
        with open(path, "rb") as fh:
            key.update(hashlib.sha256(fh.read()).digest())
    entry = os.path.join(cache_dir, key.hexdigest() + ".json")
    if os.path.exists(entry):
        with open(entry) as fh:
            return tuple(json.load(fh))
    result = task.check()
    with open(entry + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(entry + ".tmp", entry)
    return result


def judge(task, code, out, err, secs, cache_dir=None):
    """The task's record.  ``ok`` is False when it raised, exited nonzero or
    failed its output check; ``wrong`` only when the check found a wrong
    answer that no known defect explains (verdict WRONG)."""
    rec = {"name": task.name, "seconds": secs, "exit": code,
           "props": dict(task.props)}
    if err is not None or code != 0:
        last = out.strip().splitlines()[-1:]
        rec.update(ok=False, wrong=False,
                   detail=err or f"exit {code}: {' '.join(last)}")
        return rec
    try:
        verdict, detail, props = checked(task, cache_dir)
    except Exception:
        verdict, detail, props = checks.WRONG, traceback.format_exc(limit=2), {}
    rec.update(ok=verdict == checks.PASS, wrong=verdict == checks.WRONG,
               detail=detail)
    rec["props"].update(props)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("t_spawn", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace-out", help="write the spans here as JSON")
    ap.add_argument("--check-cache",
                    help="reuse and store check verdicts in this directory")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(teamlqg.__file__).startswith(src + os.sep):
        raise SystemExit(f"teamlqg imported from {teamlqg.__file__}, not {src}")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return _run(args, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, tracer, workdir):
    wl = workloads.build(args.workload, args.seed, workdir, args.scale)
    for label, argv in wl.setup:
        code, out, err = run_cli(argv)
        if code != 0:
            raise SystemExit(f"setup step {label!r} failed: exit {code} {err or ''}"
                             f"\n{out}")

    t_first = time.perf_counter()
    setup_s = t_first - args.t_spawn
    results = []
    for task in wl.tasks:
        t0 = time.perf_counter()
        code, out, err = run_cli(task.argv)
        results.append((task, code, out, err, time.perf_counter() - t0))
    wall_s = time.perf_counter() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    env = environment()

    if tracer:
        tracer.uninstall()
    records = [judge(task, code, out, err, secs, args.check_cache)
               for task, code, out, err, secs in results]

    report = {"workload": wl.name, "seed": wl.seed, "setup_s": setup_s,
              "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "tasks": records, "env": env}
    if tracer:
        report["layers"] = tracer.metrics()
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.span_records(), fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
