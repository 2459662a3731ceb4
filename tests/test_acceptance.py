"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL summary line with the measured values.
All oracles here are independent of the package internals: a dynamic-
programming LQR recursion, a stacked-covariance quadratic minimizer, and
Monte Carlo estimates.
"""

import json
import time

import numpy as np

from teamlqg.cli import main as cli_main
from teamlqg.delayed import solve_delayed_finite
from teamlqg.linalg import spectral_radius
from teamlqg.riccati import riccati_step
from teamlqg.sim import (
    GraphPolicySet,
    TreePolicySet,
    certainty_equivalence_check,
    exchangeability_check,
    rollout_costs,
    simulate,
    symmetrization_check,
)
from teamlqg.tree import (
    mean_field,
    meanfield_limit_policy,
    n_dm,
    predicted_cost,
    solve_coupling_gains,
    solve_k_p,
    solve_tree,
)

from conftest import (
    closed_form_cost_variants,
    convex_combination_check,
    coupled_delayed_spec_2dm,
    random_tree_spec,
    scalar_mf_spec,
    scalar_tree_spec,
    single_dm_delayed_spec,
)
from test_delayed import dp_oracle
from test_tree import oracle_L

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def report(name, passed, detail):
    print(f"{name}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{name}: {detail}"


def test_A1_centralized_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_gain = worst_cost = 0.0
    for trial in range(20):
        spec = single_dm_delayed_spec(rng, n=1 + trial % 2)
        T = spec.horizon
        pol, cost = solve_delayed_finite(spec, T)
        S = spec.cost.S
        Ks, Xs = dp_oracle(spec.dynamics.A, spec.dynamics.B,
                           spec.cost.Q, spec.cost.R, S, T)
        node = pol.graph.nodes[0]
        worst_gain = max(worst_gain,
                         max(np.abs(pol.gains[node][t] - Ks[t]).max()
                             for t in range(T)))
        Sd = 0.5 * (spec.noise.init_diag + spec.noise.init_diag.T)
        W = 0.5 * (spec.noise.sigma_w + spec.noise.sigma_w.T)
        oracle = (np.trace(Xs[0] @ Sd)
                  + sum(np.trace(Xs[t + 1] @ W) for t in range(T))) / T
        worst_cost = max(worst_cost, abs(cost - oracle))
    dt = time.time() - t0
    report("A1", worst_gain < 1e-10 and worst_cost < 1e-10 and dt < 10.0,
           f"20 instances, max gain diff {worst_gain:.2e}, "
           f"max cost diff {worst_cost:.2e}, {dt:.1f}s")


def test_A2_coupling_gain_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    modes = [n_dm(2), n_dm(3), n_dm(4), mean_field(3), mean_field(4)]
    worst = 0.0
    for trial in range(20):
        mode = modes[trial % len(modes)]
        spec = random_tree_spec(rng, T=int(rng.integers(1, 6)),
                                mean_field=mode.kind == "mean_field_N")
        T = spec.horizon
        L = solve_coupling_gains(spec, T, mode)
        ref = oracle_L(spec, T, mode)
        worst = max(worst, float(np.abs(np.stack(L) - ref).max()))
    dt = time.time() - t0
    report("A2", worst < 1e-6 and dt < 60.0,
           f"20 instances (N in 2..4, T <= 5), max L diff {worst:.2e}, {dt:.1f}s")


def test_A3_cost_formula_validation():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_z = 0.0
    variant_votes = {}
    for _ in range(5):
        spec = random_tree_spec(rng, n=1, m=1, T=int(rng.integers(2, 5)))
        T = spec.horizon
        pol = solve_tree(spec, T, n_dm(2))
        pred = predicted_cost(spec, pol)
        v = closed_form_cost_variants(spec, pol)
        assert abs(v["identity"] - v["exact"]) < 1e-12 * (1 + abs(v["exact"]))
        variant_votes[v["best_variant"]] = variant_votes.get(v["best_variant"], 0) + 1
        rep = simulate(spec, TreePolicySet.from_policy(pol, 2), T, 100_000,
                       seed=33)
        worst_z = max(worst_z, abs(rep.mean_cost - pred) / rep.std_error)
    for _ in range(5):
        spec = coupled_delayed_spec_2dm(T=int(rng.integers(2, 5)),
                                        S=float(rng.uniform(0.0, 0.3)))
        T = spec.horizon
        polD, predD = solve_delayed_finite(spec, T)
        repD = simulate(spec, GraphPolicySet(policy=polD), T, 100_000, seed=34)
        worst_z = max(worst_z, abs(repD.mean_cost - predD) / repD.std_error)
    dt = time.time() - t0
    best = max(variant_votes, key=variant_votes.get)
    report("A3", worst_z <= 3.0 and dt < 120.0,
           f"10 instances at 1e5 rollouts, max |z| {worst_z:.2f} (<= 3); "
           f"closest published trace variant: {best} "
           f"(exact identity verified to 1e-12), {dt:.1f}s")


def test_A4_infinite_horizon_convergence():
    A = B = Q = R = np.array([[1.0]])
    P = np.zeros((1, 1))
    hit_T = None
    for T in range(1, 201):
        P, K = riccati_step(A, B, Q, R, P)
        if abs(P[0, 0] - PHI) < 1e-8:
            hit_T = T
            break
    radius = spectral_radius(A + B @ K)

    spec = scalar_tree_spec(T=2)
    prev = solve_coupling_gains(spec, 32, n_dm(2))
    nxt = solve_coupling_gains(spec, 64, n_dm(2))
    disagreement = max(float(np.abs(nxt[t] - prev[t]).max()) for t in range(32))
    report("A4",
           hit_T is not None and radius < 1.0 and disagreement < 1e-7,
           f"|P - golden ratio| < 1e-8 at T={hit_T}, closed-loop radius "
           f"{radius:.4f}, L prefix disagreement {disagreement:.2e}")


def test_A5_mean_field_convergence():
    t0 = time.time()
    spec = scalar_mf_spec(T=3)
    T = 3
    Ns = [2, 4, 8, 16, 32, 64, 128, 256]
    gains = {}
    for N in Ns:
        L = solve_coupling_gains(spec, T, mean_field(N))
        gains[N] = np.stack(L)
    diffs = [float(np.abs(gains[2 * N] - gains[N]).max()) for N in Ns[:-1]]
    monotone = all(b <= a + 1e-15 for a, b in zip(diffs, diffs[1:]))

    from dataclasses import replace
    N = 256
    nspec = replace(spec, n_dm=N)
    pol_n = solve_tree(nspec, T, mode=mean_field(N))
    limit = meanfield_limit_policy(spec, T)
    pset_n = TreePolicySet.from_policy(pol_n, N)
    pset_l = TreePolicySet(
        mode=mean_field(N),
        K=tuple(tuple(limit.K) for _ in range(N)),
        L=tuple(tuple(limit.L) for _ in range(N)),
    )
    c_n = rollout_costs(nspec, pset_n, T, 10_000, seed=55)
    c_l = rollout_costs(nspec, pset_l, T, 10_000, seed=55)
    gap = float(np.mean(c_l - c_n))
    se3 = 3.0 * float(np.std(c_l - c_n, ddof=1) / np.sqrt(10_000))
    dt = time.time() - t0
    report("A5",
           monotone and abs(gap) <= max(se3, 1e-12) and dt < 300.0,
           f"L diffs over N=2..256 non-increasing ({diffs[0]:.1e} -> "
           f"{diffs[-1]:.1e}), MC cost gap at N=256: {gap:.2e} "
           f"(3 SE {se3:.2e}), {dt:.1f}s")


def test_A6_structural_theorem_suite():
    t0 = time.time()
    rng = np.random.default_rng(606)
    exch_ok = symm_ok = True
    for k in range(10):
        spec = random_tree_spec(rng, n=1, m=1, T=3)
        K = tuple(tuple(rng.normal(scale=0.25, size=(1, 1)) for _ in range(3))
                  for _ in range(2))
        L = tuple(tuple(rng.normal(scale=0.25, size=(1, 1)) for _ in range(3))
                  for _ in range(2))
        pset = TreePolicySet(mode=n_dm(2), K=K, L=L)
        delta, ci = exchangeability_check(spec, pset, [1, 0], 5000,
                                          seed=700 + k)
        exch_ok = exch_ok and abs(delta) <= ci
        cs, co, ci2 = symmetrization_check(spec, pset, 5000, seed=700 + k)
        symm_ok = symm_ok and cs <= co + ci2

    conv_ok = True
    spec = scalar_tree_spec(T=2)
    for k in range(20):
        p1 = TreePolicySet(
            mode=n_dm(2),
            K=tuple(tuple(rng.normal(scale=0.3, size=(1, 1))
                          for _ in range(2)) for _ in range(2)),
            L=tuple(tuple(rng.normal(scale=0.3, size=(1, 1))
                          for _ in range(2)) for _ in range(2)))
        p2 = TreePolicySet(
            mode=n_dm(2),
            K=tuple(tuple(rng.normal(scale=0.3, size=(1, 1))
                          for _ in range(2)) for _ in range(2)),
            L=tuple(tuple(rng.normal(scale=0.3, size=(1, 1))
                          for _ in range(2)) for _ in range(2)))
        a = float(rng.uniform(0, 1))
        lhs, rhs, ci3 = convex_combination_check(spec, p1, p2, a, 3000,
                                                 seed=800 + k)
        conv_ok = conv_ok and lhs <= rhs + ci3

    ce_spec = scalar_tree_spec(T=3)
    ce_pol = solve_tree(ce_spec, 3)
    ce_uni = solve_tree(scalar_tree_spec(T=3, family="uniform"), 3)
    gains_ok = (np.array_equal(ce_pol.K, ce_uni.K)
                and np.array_equal(ce_pol.L, ce_uni.L))
    ce = certainty_equivalence_check(
        ce_spec, TreePolicySet.from_policy(ce_pol, 2),
        predicted_cost(ce_spec, ce_pol), 20_000, seed=66)
    ce_ok = gains_ok and ce["uniform_mc_within_3se"]
    dt = time.time() - t0
    report("A6", exch_ok and symm_ok and conv_ok and ce_ok,
           f"exchangeability 10/10 {'ok' if exch_ok else 'FAILED'}, "
           f"symmetrization {'ok' if symm_ok else 'FAILED'}, "
           f"convexity 20 triples {'ok' if conv_ok else 'FAILED'}, "
           f"certainty equivalence {'ok' if ce_ok else 'FAILED'}, {dt:.1f}s")


def test_A7_determinism(tmp_path):
    spec_data = {
        "n_dm": 2, "horizon": 3,
        "model": {"A": [[1.0]], "B": [[1.0]]},
        "cost": {"Q": [[1.0]], "R": [[1.0]], "R_tilde": [[0.5]]},
        "noise": {"sigma_w": [[1.0]], "init_diag": [[1.0]],
                  "init_offdiag": [[0.5]]},
        "info": {"kind": "tree"},
    }
    mf_data = {
        "n_dm": 4, "horizon": 3,
        "model": {"A": [[0.9]], "B": [[1.0]]},
        "cost": {"Q": [[1.0]], "R": [[1.0]], "R_tilde": [[0.4]],
                 "Q_tilde": [[0.2]]},
        "noise": {"sigma_w": [[0.5]], "init_diag": [[1.0]],
                  "init_offdiag": [[0.3]]},
        "info": {"kind": "meanfield"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_data))
    mf_path = tmp_path / "mf.json"
    mf_path.write_text(json.dumps(mf_data))
    pol_path = tmp_path / "pol.json"
    assert cli_main(["solve-tree", str(spec_path), "--out", str(pol_path)]) == 0

    stochastic = [
        ["simulate", str(spec_path), "--policy", str(pol_path),
         "--rollouts", "2000", "--seed", "12"],
        ["sweep-mft", str(mf_path), "--schedule", "2,4,8",
         "--rollouts", "500", "--seed", "12"],
        ["verify", str(spec_path), "--rollouts", "2000", "--seed", "12"],
    ]
    all_same = True
    for k, cmd in enumerate(stochastic):
        outs = []
        for rep in range(2):
            out = tmp_path / f"out_{k}_{rep}.json"
            assert cli_main(cmd + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        all_same = all_same and outs[0] == outs[1]
    report("A7", all_same,
           "simulate / sweep-mft / verify repeated with the same seed are "
           "bitwise identical")
