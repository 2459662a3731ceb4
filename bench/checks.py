"""Output checks: each task's report against a reference computed outside
the timed region.

A check factory takes the paths a task writes and reads and returns a
function of no arguments.  That function returns ``(verdict, detail,
props)``: PASS, MISS or WRONG, a one-line reason, and input properties that
only the output reveals (closed-loop radius, horizon reached, iteration
counts).  MISS is a failed check that a named known defect explains; it
counts as a failed op but not as a wrong answer.  WRONG is any other failed
check.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from teamlqg import cli, delayed, sim, tree
from teamlqg.linalg import spectral_radius

MC_SE = 4.0                 # Monte Carlo mean within this many standard errors
EXACT_RTOL = 1e-9           # reported cost vs sim.exact_cost_general
GRAD_ATOL = 1e-6            # directional derivative at an optimum, times 1+|J|
DARE_RTOL = 1e-8            # P, K vs scipy.linalg.solve_discrete_are
DARE_MISS_RTOL = 1e-6       # dare errors up to this are the known defect below
DELAYED_TOL = 1e-6          # stationary node gains vs long-horizon t=0 gains
DELAYED_LONG_T = 200
GRAD_DIRECTIONS = 3

PASS, MISS, WRONG = "pass", "miss", "wrong"

# dare_solve stops when successive iterates differ by < 1e-10, which does
# not bound the error: near-marginal instances can miss scipy's P by a few
# times 1e-8.  Errors between DARE_RTOL and DARE_MISS_RTOL are put down to
# that stopping rule; larger ones are wrong answers.
DARE_DEFECT = "known defect: DARE fixed-point stopping rule (ROADMAP items 3, 5)"


def _reading(*paths):
    """Marks a check with the files it reads.  Its verdict is a function of
    their bytes (and of the workload seed), so a worker may reuse the verdict
    an earlier worker of the same run got for byte-identical files."""
    def mark(check):
        check.reads = paths
        return check
    return mark


def verdict(ok):
    return PASS if ok else WRONG


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def simulate_check(out, policy_out):
    @_reading(out, policy_out)
    def check():
        rep, pol = _load(out), _load(policy_out)
        gap = abs(rep["mean_cost"] - pol["predicted_cost"])
        ok = gap <= MC_SE * rep["std_error"]
        return verdict(ok), (f"|MC - exact| = {gap:.3g} vs {MC_SE:g} SE = "
                    f"{MC_SE * rep['std_error']:.3g}"), {}
    return check


def sweep_check(out):
    @_reading(out)
    def check():
        rows = _load(out)["table"]
        worst = max(abs(r["mc_cost"] - r["predicted_cost"]) / (r["mc_3se"] / 3.0)
                    for r in rows)
        return verdict(worst <= MC_SE), f"worst row |MC - exact| = {worst:.2f} SE", {}
    return check


def _stationarity(spec, pset, T, seed):
    """Exact cost of ``pset`` and its largest central difference along
    seeded random directions in the coupling gains L."""
    J = sim.exact_cost_general(spec, pset, T)
    Ls = np.array(pset.L[0])
    rng = np.random.default_rng(seed)
    h = 1e-3
    worst = 0.0
    for _ in range(GRAD_DIRECTIONS):
        D = rng.normal(size=Ls.shape)
        D /= np.linalg.norm(D)
        costs = []
        for s in (h, -h):
            L = tuple(tuple(Ls + s * D) for _ in range(pset.n_dm))
            costs.append(sim.exact_cost_general(
                spec, sim.TreePolicySet(mode=pset.mode, K=pset.K, L=L), T))
        worst = max(worst, abs(costs[0] - costs[1]) / (2 * h))
    return J, worst


def tree_solve_check(out, spec_path, seed, n_agents=None):
    """solve-tree / solve-ndm: the reported cost is the exact cost of the
    reported policy, and that policy is stationary in L."""
    @_reading(out, spec_path)
    def check():
        rep = _load(out)
        spec = cli.load_spec(spec_path)
        if n_agents is not None:
            spec = replace(spec, n_dm=n_agents)
        pset, pol = cli.policy_from_report(rep["policy"], spec)
        J, slope = _stationarity(spec, pset, pol.horizon, seed)
        rel = abs(rep["predicted_cost"] - J) / abs(J)
        ok = rel <= EXACT_RTOL and slope <= GRAD_ATOL * (1 + abs(J))
        return verdict(ok), (f"cost rel err {rel:.2e}, max directional derivative "
                    f"{slope:.2e}"), {}
    return check


def lqr_gains(A, B, Q, R, T):
    """Reference finite-horizon LQR gains K_0..K_{T-1} from P_T = 0."""
    P = np.zeros_like(Q)
    K = [None] * T
    for t in range(T - 1, -1, -1):
        G = R + B.T @ P @ B
        K[t] = -np.linalg.solve(G, B.T @ P @ A)
        P = Q + A.T @ P @ A + A.T @ P @ B @ K[t]
        P = 0.5 * (P + P.T)
    return K


def mf_check(out, spec_path, seed):
    """solve-mf: K is the LQR recursion, and the limit gains are stationary
    for the spec's N-agent mean-field cost (the N-agent optimum does not
    depend on N in this statistic's parametrization)."""
    @_reading(out, spec_path)
    def check():
        rep = _load(out)
        spec = cli.load_spec(spec_path)
        pset, pol = cli.policy_from_report(rep["policy"], spec)
        K_ref = lqr_gains(spec.dynamics.A, spec.dynamics.B, spec.cost.Q,
                          spec.cost.R, pol.horizon)
        k_err = max(_rel(k, r) for k, r in zip(pol.K, K_ref))
        pset = sim.TreePolicySet(mode=tree.mean_field(spec.n_dm), K=pset.K,
                                 L=pset.L)
        J, slope = _stationarity(spec, pset, pol.horizon, seed)
        ok = k_err <= EXACT_RTOL and slope <= GRAD_ATOL * (1 + abs(J))
        return verdict(ok), (f"K rel err {k_err:.2e}, max directional derivative "
                    f"{slope:.2e}"), {"N_reached": rep["convergence"][-1]["N"]
                                      if rep["convergence"] else None}
    return check


def _scipy_dare(A, B, Q, R):
    import scipy.linalg

    P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return P, K


def _dare_error(A, B, Q, R, P, K):
    """Largest relative error of P and K, its description, and the
    reference closed-loop radius."""
    P_ref, K_ref = _scipy_dare(A, B, Q, R)
    p_err, k_err = _rel(P, P_ref), _rel(K, K_ref)
    radius = spectral_radius(A + B @ np.asarray(K_ref))
    return (max(p_err, k_err),
            f"P rel err {p_err:.2e}, K rel err {k_err:.2e} vs scipy", radius)


def dare_check(out, spec_path):
    @_reading(out, spec_path)
    def check():
        rep = _load(out)
        spec = cli.load_spec(spec_path)
        d = spec.dynamics
        err, detail, radius = _dare_error(d.A, d.B, spec.cost.Q, spec.cost.R,
                                          rep["P"], rep["K"])
        if err <= DARE_RTOL:
            v = PASS
        elif err <= DARE_MISS_RTOL:
            v, detail = MISS, f"{detail} [{DARE_DEFECT}]"
        else:
            v = WRONG
        return v, detail, {"iterations": rep["iterations"],
                            "closed_loop_radius": radius}
    return check


def tree_inf_check(out, spec_path):
    @_reading(out, spec_path)
    def check():
        pol = _load(out)["policy"]
        spec = cli.load_spec(spec_path)
        d = spec.dynamics
        err, detail, _ = _dare_error(d.A, d.B, spec.cost.Q, spec.cost.R,
                                     pol["P"], pol["K"])
        return verdict(err <= DARE_RTOL), detail, {"closed_loop_radius": pol["closed_loop_radius"],
                            "horizon_used": pol["horizon_used"],
                            "d_final": pol["horizon_used"] * d.n * d.m}
    return check


def delayed_inf_check(out, spec_path):
    """Stable closed loop, and the stationary node gains equal the t=0 gains
    of a long finite horizon."""
    @_reading(out, spec_path)
    def check():
        rep = _load(out)
        spec = cli.load_spec(spec_path)
        finite, _ = delayed.solve_delayed_finite(spec, DELAYED_LONG_T)
        key = lambda s: ",".join(str(i + 1) for i in s)
        gains = rep["policy"]["gains"]
        err = max(float(np.max(np.abs(np.asarray(gains[key(r)]) - g[0])))
                  / (1.0 + float(np.max(np.abs(g[0]))))
                  for r, g in finite.gains.items())
        radius = rep["closed_loop_radius"]
        ok = radius < 1.0 and err <= DELAYED_TOL
        return verdict(ok), f"radius {radius:.4f}, gain err vs T={DELAYED_LONG_T} {err:.2e}", {
            "closed_loop_radius": radius,
            "graph_nodes": len(rep["policy"]["nodes"])}
    return check


def verify_check(out):
    @_reading(out)
    def check():
        rep = _load(out)
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        ok = rep["ok"] and not failed
        return verdict(ok), ("all checks PASS" if ok else f"FAIL: {', '.join(failed)}"), {}
    return check
