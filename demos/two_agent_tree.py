"""Two cooperating agents, each seeing only its own state history.

Each agent runs u_t = K_t x_t + L_t E(x_0^other | x_0^own): the familiar
Riccati feedback plus a correction that exploits the correlation between the
two initial states.  This script solves the canonical scalar instance,
prints both gain schedules, and confirms the predicted cost three ways:
exact moment propagation, Monte Carlo, and a person-by-person perturbation
test showing no single agent can improve unilaterally.
"""

import numpy as np

from teamlqg import (
    CostSpec,
    Homogeneous,
    NoiseSpec,
    TeamSpec,
    Tree,
    TreePolicySet,
    pbp_check,
    predicted_cost,
    simulate,
    solve_tree,
)

spec = TeamSpec(
    n_dm=2,
    horizon=4,
    dynamics=Homogeneous(A=[[1.0]], B=[[1.0]]),
    cost=CostSpec(Q=[[1.0]], R=[[1.0]], R_tilde=[[0.5]]),
    noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]], init_offdiag=[[0.5]]),
    info=Tree(),
)

policy = solve_tree(spec)
print("gain schedules (u_t = K_t x_t + L_t E[x0^2 | x0^1]):")
for t in range(spec.horizon):
    print(f"  t={t}:  K = {policy.K[t][0, 0]:+.6f}   L = {policy.L[t][0, 0]:+.6f}")
print()
print("Notice L_t -> 0: the initial-state correlation is only worth")
print("exploiting early, before the noise washes it out.")
print()

cost = predicted_cost(spec, policy)
pset = TreePolicySet.from_policy(policy, spec.n_dm)
rep = simulate(spec, pset, spec.horizon, 50_000, seed=7)
print(f"predicted cost      : {cost:.6f}")
print(f"Monte Carlo estimate: {rep.mean_cost:.6f} +/- {rep.std_error:.4f} (1 SE)")
print()

defect = pbp_check(spec, pset, spec.horizon)
print(f"best unilateral single-entry improvement: {defect:.2e}")
print("(non-positive up to second-order step effects: no agent can deviate")
print(" profitably, which for this convex team implies global optimality)")
