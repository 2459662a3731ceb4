"""Average-cost limit of the two-agent team.

As the horizon grows, the own-state gain K_t settles to the stationary
Riccati gain and the coupling gains L_t survive only near t = 0 before
decaying to zero.  The stationary schedule comes in closed form: the
coupling sweep splits into n modes on the agent's own (A, B), so one DARE
per mode and one stacked Stein equation give it as an exact linear
realization L_t = C G^t z0, which the policy stores.  On
the classic A=B=Q=R=1 instance the stationary value is the golden ratio, a
nice analytic anchor for the numerics.
"""

import numpy as np

from teamlqg import (
    CostSpec,
    Homogeneous,
    NoiseSpec,
    TeamSpec,
    Tree,
    dare_solve,
    solve_infinite_tree,
)

spec = TeamSpec(
    n_dm=2,
    horizon=2,   # ignored by the infinite-horizon solve
    dynamics=Homogeneous(A=[[1.0]], B=[[1.0]]),
    cost=CostSpec(Q=[[1.0]], R=[[1.0]], R_tilde=[[0.5]]),
    noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]], init_offdiag=[[0.5]]),
    info=Tree(),
)

sol = dare_solve(spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R)
phi = (1 + np.sqrt(5)) / 2
print(f"stationary value P = {sol.P[0, 0]:.10f}  (golden ratio {phi:.10f})")
print(f"stationary gain  K = {sol.K[0, 0]:.10f}")
print()

policy = solve_infinite_tree(spec)
print(f"average cost per stage : {policy.average_cost:.6f}  (= 2 tr(P W))")
print(f"closed-loop radius     : {policy.closed_loop_radius:.6f}")
print(f"|L_t| certified < 1e-8 : from t = {policy.horizon_used}")
print()
print("head of the coupling-gain schedule:")
for t, L in enumerate(policy.L(8)):
    print(f"  t={t}:  L = {L[0, 0]:+.3e}")
print()
print("The decay is why the coupling contributes nothing to the average")
print("cost: only the stationary Riccati feedback matters per stage.")
