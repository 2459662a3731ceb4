"""Exact second moments of a linear closed loop, and their adjoint.

Its user is ``tree._price``, which prices tree-class profiles under their
mode's weights spread over the agents (``tree.spread_weights``), symmetric
policies as one exchangeable pair (``tree._cost_and_grad``) and N-agent
profiles (``sim.exact_cost_general``, ``sim.pbp_check``, whose cost
``verify`` hands on to ``sim.certainty_equivalence_check``), on one loop per
agent on z^i = (x_t^i, c^i), batched over the agents, with c^i held
constant, so every K and L gain is a plain block of M_t.

Each stacks a state z_t with E z_0 z_0^T = Z_0 that runs under the linear
feedback v_t = M_t z_t,

    z_{t+1} = F_t z_t + e_t,   F_t = F0 + Bv M_t,   E e_t e_t^T = W,

and costs the stages t < T and nothing after them (see CostSpec),

    J = (1/T) sum_{t<T} E(z_t^T Cz z_t + 2 z_t^T Czv v_t + v_t^T Rv v_t).

``propagate`` runs the forward pass Z_{t+1} = F_t Z_t F_t^T + W with stage
cost tr(C_t Z_t), C_t = Cz + Czv M_t + M_t^T Czv^T + M_t^T Rv M_t;
``gain_sensitivity`` runs the adjoint pass P_T = 0,
P_t = C_t + F_t^T P_{t+1} F_t, whose P_{t+1} prices the moment handed to
stage t + 1.  Its G and H give every gain entry's exact best single move,
whose cost drop ``sim.pbp_check`` judges relative to |J|.

Schedules are stage-first arrays: M (T, p, dim) in, Z, F and C
(T, dim, dim) out; k loops sharing F0, Bv, W and the weights batch on an
axis after the stage axis: M (T, k, p, dim) and Z0 (k, dim, dim) give k
costs and Z, F, C (T, k, dim, dim), G (T, k, p, dim) and H (T, k, p).
Only the Z and P recurrences loop over stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClosedLoop:
    Z0: np.ndarray     # (dim, dim) initial moment
    F0: np.ndarray     # (dim, dim) open-loop map
    Bv: np.ndarray     # (dim, p) feedback input map
    M: np.ndarray      # (T, p, dim) feedback gains
    W: np.ndarray      # (dim, dim) per-step noise moment
    Cz: np.ndarray     # (dim, dim) state weight
    Czv: np.ndarray    # (dim, p) state-feedback cross weight
    Rv: np.ndarray     # (p, p) feedback weight

    @property
    def horizon(self):
        return len(self.M)


@dataclass(frozen=True)
class Moments:
    """Forward pass of a closed loop: its cost and the matrices Z, F and C
    of each stage t < T, as (T, dim, dim)."""

    cost: float        # or one per loop of a batch
    Z: np.ndarray
    F: np.ndarray
    C: np.ndarray


def propagate(loop: ClosedLoop) -> Moments:
    """Exact cost and moments by covariance propagation (no Monte Carlo)."""
    T, M = loop.horizon, loop.M
    F = loop.F0 + loop.Bv @ M
    CM = loop.Czv @ M
    C = loop.Cz + CM + CM.swapaxes(-1, -2) + M.swapaxes(-1, -2) @ loop.Rv @ M
    Z = np.empty((T, *loop.Z0.shape))
    Z[0] = loop.Z0
    for t in range(T - 1):
        Z[t + 1] = F[t] @ Z[t] @ F[t].swapaxes(-1, -2) + loop.W
    cost = np.einsum("t...ij,t...ji->...", C, Z) / T
    return Moments(cost=cost if cost.ndim else float(cost), Z=Z, F=F, C=C)


def gain_sensitivity(loop: ClosedLoop, mom: Moments):
    """Exact dependence of J on each single entry of the feedback gains.

    Moving M_t by s e_a v^T changes stage t's weight C_t and map F_t, and
    nothing else, so J is exactly quadratic in s:

        J(s) = J + s e_a^T G_t v + s^2 H_t[a] v^T Z_t v,
        G_t  = (2/T) (Czv^T + Rv M_t + Bv^T P_{t+1} F_t) Z_t,
        H_t  = (1/T) diag(Rv + Bv^T P_{t+1} Bv).

    Returns G with shape (T, p, dim) (the gradient of J in M_t) and H with
    shape (T, p), from one backward adjoint pass over ``mom``.
    """
    T, F = loop.horizon, mom.F
    P = np.zeros((T + 1, *loop.Z0.shape))
    for t in range(T - 1, -1, -1):
        P[t] = mom.C[t] + F[t].swapaxes(-1, -2) @ P[t + 1] @ F[t]
    BP = loop.Bv.T @ P[1:]
    G = (2.0 / T) * (loop.Czv.T + loop.Rv @ loop.M + BP @ F) @ mom.Z
    H = (np.diag(loop.Rv) + np.einsum("t...ij,ji->t...i", BP, loop.Bv)) / T
    return G, H
