"""Workload definitions: seeded spec generation, CLI task lists, output checks.

A workload is built from its seed alone.  ``build`` writes the JSON spec
files into a scratch directory and returns the setup steps (CLI calls whose
outputs later tasks read, such as a solved policy) and the timed tasks.
Each task carries the input properties that reports cite and a check that
compares the task's report against a reference computed outside the timed
region.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

# Full-size rollout counts; ``scale`` multiplies them (the instance shapes
# never change).
MC_ROLLOUTS = {"tree2": 25_000, "tree8": 5_000, "graph3": 12_500, "sweep": 4_000}
VERIFY_ROLLOUTS = {"tree8": 1_000, "scalar": 200}
VERIFY_SCALAR_SEEDS = 4
DARE_LADDER_B = (0.001, 0.002, 0.003, 0.005, 0.01, 0.03)



@dataclass
class Task:
    name: str
    argv: list
    check: Callable          # () -> (verdict, detail, output properties)
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    setup: list              # [(label, argv)] run before the first task
    tasks: list              # [Task]


# ---------------------------------------------------------------------------
# seeded instance generation (plain JSON spec dicts)


def _psd(rng, n, scale=1.0, ridge=0.0):
    F = rng.normal(size=(n, n))
    return scale * (F @ F.T) / n + ridge * np.eye(n)


def _with_radius(rng, n, radius):
    A = rng.normal(size=(n, n))
    return A * (radius / np.max(np.abs(np.linalg.eigvals(A))))


def _m(M):
    return np.atleast_2d(np.asarray(M, dtype=float)).tolist()


def _spec(N, T, model, Q, R, W, Sd, So, info, R_tilde=None, Q_tilde=None,
          S=None):
    cost = {"Q": _m(Q), "R": _m(R)}
    for key, M in (("R_tilde", R_tilde), ("Q_tilde", Q_tilde), ("S", S)):
        if M is not None:
            cost[key] = _m(M)
    return {"n_dm": N, "horizon": T, "model": model, "cost": cost,
            "noise": {"sigma_w": _m(W), "init_diag": _m(Sd),
                      "init_offdiag": _m(So)},
            "info": info}


def tree_spec(rng, N, n, m, T, a_radius=0.9, coupled=True, mean_field=False):
    """Exchangeable tree (or mean-field) instance with PD coupling weights."""
    Sd = _psd(rng, n, ridge=0.5)
    return _spec(
        N, T,
        {"A": _m(_with_radius(rng, n, a_radius)), "B": _m(rng.normal(size=(n, m)))},
        Q=_psd(rng, n, ridge=0.1), R=_psd(rng, m, ridge=0.5),
        W=_psd(rng, n, scale=0.5, ridge=0.05), Sd=Sd,
        So=float(rng.uniform(0.1, 0.45)) * Sd,
        info={"kind": "meanfield" if mean_field else "tree"},
        R_tilde=_psd(rng, m, scale=0.3, ridge=0.2) if coupled else None,
        Q_tilde=_psd(rng, n, scale=0.3) if (coupled and mean_field) else None,
    )


def slow_tree_spec(rng, T, rho=0.84):
    """n=m=2 tree instance whose closed loop decays like rho**t.

    A is rho times a rotation and B is small, so the stationary gain barely
    moves the spectrum.  The coupling schedule then decays like rho**t, and
    the horizon doubling of solve-tree-inf (prefix disagreement below 1e-8)
    stops at horizon 256 for every seed: rho**64 is far above 1e-8 and
    rho**128 far below it.
    """
    th = rng.uniform(0.3, 2.8)
    A = rho * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    Sd = _psd(rng, 2, ridge=0.5)
    return _spec(
        2, T, {"A": _m(A), "B": _m(0.02 * rng.normal(size=(2, 2)))},
        Q=_psd(rng, 2, ridge=0.1), R=_psd(rng, 2, ridge=0.5),
        W=_psd(rng, 2, scale=0.5, ridge=0.05), Sd=Sd,
        So=float(rng.uniform(0.1, 0.45)) * Sd, info={"kind": "tree"},
        R_tilde=_psd(rng, 2, scale=0.3, ridge=0.2),
    )


def scalar_tree_spec(rng, T):
    sd = float(rng.uniform(0.5, 1.5))
    return _spec(
        2, T, {"A": _m(rng.uniform(0.7, 1.1)), "B": _m(rng.uniform(0.5, 1.5))},
        Q=float(rng.uniform(0.5, 2.0)), R=float(rng.uniform(0.5, 2.0)),
        W=float(rng.uniform(0.5, 1.5)), Sd=sd,
        So=float(rng.uniform(0.1, 0.45)) * sd, info={"kind": "tree"},
        R_tilde=float(rng.uniform(0.2, 0.8)),
    )


GRAPHS = {
    # name -> (N, delay matrix); None means "never shared".
    "full3": (3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    "chain4": (4, [[0, 1, None, None], [1, 0, 1, None],
                   [None, 1, 0, 1], [None, None, 1, 0]]),
    "ring4": (4, [[0, 1, None, 1], [1, 0, 1, None],
                  [None, 1, 0, 1], [1, None, 1, 0]]),
}


def delayed_spec(rng, graph, T, n=1, m=1, a_radius=0.95):
    """Blocked instance whose off-diagonal blocks follow the delay-1 links.

    The stacked A is rescaled to spectral radius ``a_radius``.
    """
    N, delays = GRAPHS[graph]
    linked = [[i == j or delays[i][j] == 1 for j in range(N)] for i in range(N)]
    A = np.zeros((N * n, N * n))
    B = np.zeros((N * n, N * m))
    for i in range(N):
        for j in range(N):
            if linked[i][j]:
                s = 1.0 if i == j else 0.3
                A[i*n:(i+1)*n, j*n:(j+1)*n] = s * rng.normal(size=(n, n))
                B[i*n:(i+1)*n, j*m:(j+1)*m] = (
                    rng.uniform(0.5, 1.5) * np.eye(n, m) if i == j
                    else 0.2 * rng.normal(size=(n, m)))
    A *= a_radius / np.max(np.abs(np.linalg.eigvals(A)))
    blocks = lambda M, r, c: [[_m(M[i*r:(i+1)*r, j*c:(j+1)*c])
                               for j in range(N)] for i in range(N)]
    return _spec(
        N, T, {"A_blocks": blocks(A, n, n), "B_blocks": blocks(B, n, m)},
        Q=_psd(rng, n, ridge=0.2), R=_psd(rng, m, ridge=0.5),
        W=_psd(rng, n, scale=0.5, ridge=0.1), Sd=_psd(rng, n, ridge=0.5),
        So=np.zeros((n, n)),
        info={"kind": "delayed",
              "delays": [["inf" if v is None else v for v in row]
                         for row in delays]},
    )


def dare_spec(A, B, Q, R):
    n = np.atleast_2d(A).shape[0]
    return _spec(1, 1, {"A": _m(A), "B": _m(B)}, Q=Q, R=R, W=np.eye(n), Sd=np.eye(n),
                 So=np.zeros((n, n)), info={"kind": "tree"})


# ---------------------------------------------------------------------------
# workload builders


class _Files:
    def __init__(self, workdir):
        self.dir = workdir

    def spec(self, name, data):
        path = os.path.join(self.dir, f"{name}.spec.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def out(self, name):
        return os.path.join(self.dir, f"{name}.out.json")


def _rollouts(base, scale):
    return max(20, int(round(base * scale)))


def _variates_per_rollout(spec):
    """Standard variates ``PrimitiveSampler.draw`` takes per rollout: one
    common and N own initial-state draws, then the noise, per state entry."""
    N, T, n = spec["n_dm"], spec["horizon"], len(spec["noise"]["sigma_w"])
    return n + N * n + T * N * n


def _mc_rollouts(rng, seed, f, scale):
    tree2 = scalar_tree_spec(rng, T=4)
    tree8 = tree_spec(rng, N=8, n=2, m=2, T=10)
    graph3 = delayed_spec(rng, "full3", T=8)
    # Long enough that the trajectories mft_sweep keeps dominate peak RSS.
    mf = tree_spec(rng, N=4, n=1, m=1, T=24, mean_field=True)
    paths = {k: f.spec(k, v) for k, v in
             (("tree2", tree2), ("tree8", tree8), ("graph3", graph3), ("mf", mf))}
    setup = [
        (f"{cmd} {key}", [cmd, paths[key], "--out", f.out(f"pol-{key}")])
        for cmd, key in (("solve-tree", "tree2"), ("solve-tree", "tree8"),
                         ("solve-delayed", "graph3"))
    ]
    tasks = []
    for key, spec in (("tree2", tree2), ("tree8", tree8), ("graph3", graph3)):
        R = _rollouts(MC_ROLLOUTS[key], scale)
        out = f.out(f"sim-{key}")
        tasks.append(Task(
            f"simulate {key}",
            ["simulate", paths[key], "--policy", f.out(f"pol-{key}"),
             "--rollouts", str(R), "--seed", str(seed + 1), "--out", out],
            checks.simulate_check(out, f.out(f"pol-{key}")),
            {"agents": spec["n_dm"], "T": spec["horizon"], "rollouts": R,
             "variates_per_rollout": _variates_per_rollout(spec)},
        ))
    R = _rollouts(MC_ROLLOUTS["sweep"], scale)
    out = f.out("sweep")
    tasks.append(Task(
        "sweep-mft mf",
        ["sweep-mft", paths["mf"], "--schedule", "2,4,8,16", "--rollouts",
         str(R), "--seed", str(seed + 2), "--out", out],
        checks.sweep_check(out),
        {"schedule": [2, 4, 8, 16], "T": mf["horizon"], "rollouts": R,
         "rollouts_total": 2 * 4 * R},
    ))
    return setup, tasks


def _coupling_solve(rng, seed, f, scale):
    tree3 = tree_spec(rng, N=2, n=3, m=3, T=128)
    ndm = tree_spec(rng, N=2, n=2, m=2, T=32)
    mf = tree_spec(rng, N=4, n=2, m=2, T=32, mean_field=True)
    tinf = slow_tree_spec(rng, T=16)
    p = {k: f.spec(k, v) for k, v in
         (("tree3", tree3), ("ndm", ndm), ("mf", mf), ("tinf", tinf))}
    tasks = [
        Task("solve-tree n=m=3 T=128",
             ["solve-tree", p["tree3"], "--out", f.out("tree3")],
             checks.tree_solve_check(f.out("tree3"), p["tree3"], seed),
             {"d": 128 * 3 * 3, "hessian_mb": 8 * (128 * 9) ** 2 / 1e6}),
        Task("solve-ndm n=8",
             ["solve-ndm", p["ndm"], "--n", "8", "--out", f.out("ndm")],
             checks.tree_solve_check(f.out("ndm"), p["ndm"], seed, n_agents=8),
             {"d": 32 * 4, "agents": 8}),
        Task("solve-mf n=m=2",
             ["solve-mf", p["mf"], "--out", f.out("mf")],
             checks.mf_check(f.out("mf"), p["mf"], seed),
             {"d": 32 * 4}),
        Task("solve-tree-inf n=m=2",
             ["solve-tree-inf", p["tinf"], "--out", f.out("tinf")],
             checks.tree_inf_check(f.out("tinf"), p["tinf"]),
             {"n": 2, "m": 2}),
    ]
    return [], tasks


def _stationary(rng, seed, f, scale):
    tasks = []
    for b in DARE_LADDER_B:
        path = f.spec(f"dare-b{b}", dare_spec(1.0, b, 1.0, 1.0))
        out = f.out(f"dare-b{b}")
        tasks.append(Task(f"dare scalar B={b}", ["dare", path, "--out", out],
                          checks.dare_check(out, path), {"n": 1, "B": b}))
    for n in range(2, 7):
        m = max(1, n // 2)
        spec = dare_spec(_with_radius(rng, n, 1.02), 0.005 * rng.normal(size=(n, m)),
                         _psd(rng, n, ridge=0.5), _psd(rng, m, ridge=0.5))
        path = f.spec(f"dare-n{n}", spec)
        out = f.out(f"dare-n{n}")
        tasks.append(Task(f"dare n={n}", ["dare", path, "--out", out],
                          checks.dare_check(out, path), {"n": n, "m": m}))
    for graph in GRAPHS:
        path = f.spec(f"delayed-{graph}", delayed_spec(rng, graph, T=8))
        out = f.out(f"delayed-{graph}")
        tasks.append(Task(f"solve-delayed-inf {graph}",
                          ["solve-delayed-inf", path, "--out", out],
                          checks.delayed_inf_check(out, path),
                          {"agents": GRAPHS[graph][0]}))
    path = f.spec("tinf-dare", tree_spec(rng, N=2, n=2, m=2, T=8, coupled=False,
                                         a_radius=1.02))
    out = f.out("tinf-dare")
    tasks.append(Task("solve-tree-inf no R_tilde",
                      ["solve-tree-inf", path, "--out", out],
                      checks.tree_inf_check(out, path), {"n": 2, "m": 2}))
    return [], tasks


def _verify_checks(rng, seed, f, scale):
    tree8 = tree_spec(rng, N=8, n=2, m=2, T=10)
    graph3 = delayed_spec(rng, "full3", T=8)
    scalar = scalar_tree_spec(rng, T=4)
    p = {k: f.spec(k, v) for k, v in
         (("tree8", tree8), ("graph3", graph3), ("scalar", scalar))}
    setup = [("solve-delayed graph3",
              ["solve-delayed", p["graph3"], "--out", f.out("pol-graph3")])]
    R8 = _rollouts(VERIFY_ROLLOUTS["tree8"], scale)
    tasks = [
        Task("verify tree8",
             ["verify", p["tree8"], "--rollouts", str(R8), "--seed",
              str(seed + 1), "--out", f.out("v-tree8")],
             checks.verify_check(f.out("v-tree8")),
             {"agents": 8, "T": 10, "gain_entries": 2 * 8 * 10 * 4,
              "rollouts": R8}),
        Task("verify --policy graph3",
             ["verify", p["graph3"], "--policy", f.out("pol-graph3"),
              "--rollouts", "100", "--seed", str(seed + 2),
              "--out", f.out("v-graph3")],
             checks.verify_check(f.out("v-graph3")), {"agents": 3, "T": 8}),
    ]
    Rs = _rollouts(VERIFY_ROLLOUTS["scalar"], scale)
    for k in range(VERIFY_SCALAR_SEEDS):
        out = f.out(f"v-scalar{k}")
        tasks.append(Task(
            f"verify scalar seed+{10 + k}",
            ["verify", p["scalar"], "--rollouts", str(Rs), "--seed",
             str(seed + 10 + k), "--out", out],
            checks.verify_check(out), {"agents": 2, "T": 4, "rollouts": Rs}))
    return setup, tasks


_BUILDERS = {
    "mc-rollouts": _mc_rollouts,
    "coupling-solve": _coupling_solve,
    "stationary": _stationary,
    "verify-checks": _verify_checks,
}
WORKLOADS = tuple(_BUILDERS)


def build(name, seed, workdir, scale=1.0) -> Workload:
    """Writes the workload's spec files into ``workdir`` and returns it."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    setup, tasks = _BUILDERS[name](rng, seed, _Files(workdir), scale)
    return Workload(name=name, seed=seed, setup=setup, tasks=tasks)
