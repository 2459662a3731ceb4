"""Tests of the benchmark itself (about 20 s).

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package suite's default collection.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02     # rollout scale for the smoke run; instance shapes unchanged


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_every_output_check_passes(name, capsys, tmp_path):
    rep = run.run_worker(name, seed=7, trace=False, scale=TINY,
                         check_cache=str(tmp_path))
    exited_ok = [t for t in rep["tasks"] if t["exit"] == 0]
    assert exited_ok, "no task exited 0"
    for t in exited_ok:
        assert t["ok"], f"{t['name']}: {t['detail']}"
    result = run.summarize(name, 7, {False: [rep]}, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(rep["tasks"])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert "ops_failed_frac" in last


def test_workload_lists_agree():
    assert run.WORKLOADS == workloads.WORKLOADS


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.build("coupling-solve", 3, str(a))
    workloads.build("coupling-solve", 3, str(b))
    workloads.build("coupling-solve", 4, str(tmp_path))
    for f in sorted(os.listdir(a)):
        assert (a / f).read_text() == (b / f).read_text()
    assert (a / "tree3.spec.json").read_text() != \
        (tmp_path / "tree3.spec.json").read_text()


def _check_spans(spans):
    child = [0.0] * len(spans)
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            child[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, child):
        assert (s["end"] - s["start"]) - c >= 0.0


def test_trace_spans_nest_and_self_times_are_nonnegative(tmp_path):
    out = str(tmp_path / "spans.json")
    rep = run.run_worker("mc-rollouts", seed=5, trace=True, scale=TINY,
                         trace_out=out)
    with open(out) as fh:
        spans = json.load(fh)
    assert spans
    _check_spans(spans)
    layers = rep["layers"]
    assert set(layers) == set(tracing.LAYER_DOC) - {"trace.overhead_frac"}
    assert all(v >= 0 for v in layers.values())
    assert layers["rng.draw.calls"] > 0 and layers["sim.rollout.calls"] > 0
    assert layers["cli.calls"] == 7       # 3 setup solves + 4 tasks


def test_tracer_self_time_excludes_children():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tr.wrap("inner", inner)
    assert tr.wrap("outer", outer)() == 2
    # clock: outer 0..5, inner 1..2 and 3..4
    st = tr.self_times()
    assert st["outer"] == 3.0 and st["inner"] == 2.0
    _check_spans(tr.span_records())


def test_install_patches_every_binding_and_uninstall_restores():
    from teamlqg import cli, delayed, riccati, tree

    original = riccati.dare_solve
    tr = tracing.Tracer()
    tr.install()
    try:
        for mod in (riccati, tree, delayed, cli):
            assert mod.dare_solve is not original
            assert mod.dare_solve.__wrapped__ is original
    finally:
        tr.uninstall()
    for mod in (riccati, tree, delayed, cli):
        assert mod.dare_solve is original


def _corrupt(task, edit):
    path = task.argv[task.argv.index("--out") + 1]
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


def _scale_P(report, key="P", factor=1.001):
    report[key] = (factor * np.asarray(report[key])).tolist()


def test_corrupted_output_counts_as_failed_op(tmp_path):
    wl = workloads.build("stationary", 2, str(tmp_path))
    task = next(t for t in wl.tasks if t.name == "solve-tree-inf no R_tilde")
    code, out, err = worker.run_cli(task.argv)
    good = worker.judge(task, code, out, err, 0.0)
    assert good["ok"] and not good["wrong"]

    _corrupt(task, lambda rep: _scale_P(rep["policy"]))
    bad = worker.judge(task, code, out, err, 0.0)
    assert not bad["ok"] and bad["wrong"]

    rep = {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0,
           "tasks": [good, bad], "env": {}}
    result = run.summarize("stationary", 2, {False: [rep]}, trace=False)
    assert result["failed"] == 1 and result["attempted"] == 2
    assert result["correct"] is False


def test_check_cache_reuses_only_byte_identical_outputs(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    wl = workloads.build("stationary", 2, str(tmp_path))
    task = next(t for t in wl.tasks if t.name == "solve-tree-inf no R_tilde")
    code, out, err = worker.run_cli(task.argv)
    for _ in range(2):
        assert worker.judge(task, code, out, err, 0.0, str(cache))["ok"]
        assert len(os.listdir(cache)) == 1

    _corrupt(task, lambda rep: _scale_P(rep["policy"]))
    bad = worker.judge(task, code, out, err, 0.0, str(cache))
    assert not bad["ok"] and bad["wrong"]
    assert len(os.listdir(cache)) == 2


def _judge_dare_n3(tmp_path, factor):
    wl = workloads.build("stationary", 2, str(tmp_path))
    task = next(t for t in wl.tasks if t.name == "dare n=3")
    code, out, err = worker.run_cli(task.argv)
    assert worker.judge(task, code, out, err, 0.0)["ok"]
    _corrupt(task, lambda rep: _scale_P(rep, factor=factor))
    return worker.judge(task, code, out, err, 0.0)


def test_dare_clearly_off_scipy_is_wrong(tmp_path):
    rec = _judge_dare_n3(tmp_path, 1.001)
    assert not rec["ok"] and rec["wrong"]


def test_dare_miss_within_stopping_rule_band_is_failed_but_not_wrong(tmp_path):
    rec = _judge_dare_n3(tmp_path, 1 + 1e-7)
    assert not rec["ok"] and not rec["wrong"]
    assert "known defect" in rec["detail"]


def test_nonzero_exit_is_failed_but_not_wrong(tmp_path):
    wl = workloads.build("stationary", 2, str(tmp_path))
    task = wl.tasks[0]
    rec = worker.judge(task, 2, "numerical failure: x\n", None, 0.0)
    assert not rec["ok"] and not rec["wrong"]
    rec = worker.judge(task, None, "", "AssertionError: x", 0.0)
    assert not rec["ok"] and not rec["wrong"]
