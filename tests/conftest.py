"""Shared fixtures and random-instance generators for the test suite."""

import numpy as np
import pytest

from teamlqg import tree
from teamlqg.model import (
    Blocked,
    CostSpec,
    Delayed,
    Homogeneous,
    MeanFieldTree,
    NoiseSpec,
    TeamSpec,
    Tree,
)
from teamlqg.moments import propagate
from teamlqg.sim import TreePolicySet, _se, _tree_crn

from stacked_reference import stacked_loop


def rand_psd(rng, n, scale=1.0, ridge=0.0):
    F = rng.normal(size=(n, n))
    return scale * (F @ F.T) / n + ridge * np.eye(n)


def rand_pd(rng, n, scale=1.0):
    return rand_psd(rng, n, scale=scale, ridge=0.5)


def scalar_tree_spec(A=1.0, B=1.0, Q=1.0, R=1.0, Rt=0.5, Sd=1.0, So=0.5,
                     W=1.0, T=2, n_dm=2, info=None, family="gaussian"):
    return TeamSpec(
        n_dm=n_dm, horizon=T,
        dynamics=Homogeneous(A=[[A]], B=[[B]]),
        cost=CostSpec(Q=[[Q]], R=[[R]],
                      R_tilde=None if Rt is None else [[Rt]]),
        noise=NoiseSpec(sigma_w=[[W]], init_diag=[[Sd]], init_offdiag=[[So]],
                        family=family),
        info=info if info is not None else Tree(),
    )


def scalar_mf_spec(A=1.0, B=1.0, Q=1.0, R=1.0, Rt=0.5, Qt=0.5, Sd=1.0,
                   So=0.5, W=1.0, T=3, n_dm=2):
    return TeamSpec(
        n_dm=n_dm, horizon=T,
        dynamics=Homogeneous(A=[[A]], B=[[B]]),
        cost=CostSpec(Q=[[Q]], R=[[R]], R_tilde=[[Rt]], Q_tilde=[[Qt]]),
        noise=NoiseSpec(sigma_w=[[W]], init_diag=[[Sd]], init_offdiag=[[So]]),
        info=MeanFieldTree(),
    )


def n2_mf_spec(n_dm=3, T=6):
    """The continuous-integration workflow's n = m = 2 mean-field spec: its
    init_offdiag is not a multiple of init_diag, so the coupling modes do
    not share one weight."""
    return TeamSpec(
        n_dm=n_dm, horizon=T,
        dynamics=Homogeneous(A=[[0.9, 0.2], [0.0, 0.7]],
                             B=[[1.0, 0.0], [0.3, 1.0]]),
        cost=CostSpec(Q=[[1.0, 0.0], [0.0, 2.0]], R=[[1.0, 0.0], [0.0, 0.5]],
                      R_tilde=[[0.5, 0.1], [0.1, 0.3]],
                      Q_tilde=[[0.2, 0.0], [0.0, 0.1]]),
        noise=NoiseSpec(sigma_w=np.eye(2), init_diag=[[1.0, 0.3], [0.3, 2.0]],
                        init_offdiag=[[0.4, 0.1], [0.1, 0.2]]),
        info=MeanFieldTree(),
    )


def random_tree_spec(rng, n=None, m=None, T=None, n_dm=2, coupled=True,
                     mean_field=False, generic_offdiag=False):
    n = n or int(rng.integers(1, 3))
    m = m or int(rng.integers(1, 3))
    T = T or int(rng.integers(1, 6))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    Sd = rand_pd(rng, n)
    if generic_offdiag:
        # So = F C F' with Sd = F F' and C's eigenvalues in [0.1, 0.45]:
        # Sd - So and Sd + (N-1) So are positive definite for every N, and
        # for n > 1 Sigma = So Sd^-1 = F C F^-1 is in general not symmetric
        F = np.linalg.cholesky(Sd)
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        So = F @ (V * rng.uniform(0.1, 0.45, n)) @ V.T @ F.T
    else:
        # exchangeable-feasible cross covariance: scaled-down copy of Sd
        So = float(rng.uniform(0.1, 0.45)) * Sd
    Rt = rand_pd(rng, m, scale=0.3) if coupled else None
    Qt = rand_psd(rng, n, scale=0.3) if (coupled and mean_field) else None
    return TeamSpec(
        n_dm=n_dm, horizon=T,
        dynamics=Homogeneous(A=A, B=B),
        cost=CostSpec(Q=rand_psd(rng, n), R=rand_pd(rng, m),
                      R_tilde=Rt, Q_tilde=Qt),
        noise=NoiseSpec(sigma_w=rand_psd(rng, n, scale=0.5),
                        init_diag=Sd, init_offdiag=So),
        info=MeanFieldTree() if mean_field else Tree(),
    )


def assert_nondegenerate(L, floor=1e-6):
    """Fail unless a coupling schedule can tell a right answer from a wrong
    one: at least two stages (at T = 1 the optimal L is exactly 0, and so is
    K) and some gain above ``floor``, far above the tolerances it is
    checked to."""
    assert len(L) >= 2, f"degenerate input: horizon {len(L)}"
    peak = max(float(np.linalg.norm(l)) for l in L)
    assert peak > floor, f"degenerate input: max |L_t| = {peak:.2e}"


def coupled_delayed_spec_2dm(T=3, S=0.2):
    """Scalar 2-agent delay-1 instance with cross-coupled dynamics."""
    return TeamSpec(
        n_dm=2, horizon=T,
        dynamics=Blocked(
            A_blocks=((np.array([[0.8]]), np.array([[0.3]])),
                      (np.array([[0.2]]), np.array([[0.7]]))),
            B_blocks=((np.array([[1.0]]), np.array([[0.4]])),
                      (np.array([[0.1]]), np.array([[1.2]]))),
        ),
        cost=CostSpec(Q=[[1.0]], R=[[1.0]], S=[[S]]),
        noise=NoiseSpec(sigma_w=[[0.6]], init_diag=[[1.0]],
                        init_offdiag=[[0.0]]),
        info=Delayed(delays=((0.0, 1.0), (1.0, 0.0))),
    )


def linked_delayed_spec(rng, delays, n, m, T):
    """Blocked instance whose off-diagonal blocks follow the direct links of
    delay 0 or 1 (None: never shared), scaled to a stable open loop."""
    N = len(delays)
    A = [[(rng.normal(size=(n, n)) if i == j or delays[i][j] in (0, 1)
           else np.zeros((n, n))) * (1.0 if i == j else 0.3)
          for j in range(N)] for i in range(N)]
    B = [[(np.eye(n, m) * rng.uniform(0.5, 1.5) if i == j
           else 0.2 * rng.normal(size=(n, m)) if delays[i][j] in (0, 1)
           else np.zeros((n, m))) for j in range(N)] for i in range(N)]
    scale = 0.95 / max(1e-9, np.max(np.abs(np.linalg.eigvals(np.block(A)))))
    return TeamSpec(
        n_dm=N, horizon=T,
        dynamics=Blocked(A_blocks=[[scale * a for a in row] for row in A],
                         B_blocks=B),
        cost=CostSpec(Q=rand_pd(rng, n), R=rand_pd(rng, m)),
        noise=NoiseSpec(sigma_w=rand_psd(rng, n, scale=0.5, ridge=0.1),
                        init_diag=rand_pd(rng, n),
                        init_offdiag=np.zeros((n, n))),
        info=Delayed(delays=tuple(tuple(np.inf if v is None else v
                                        for v in row) for row in delays)),
    )


LINKED_DELAYS = {
    "full3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "chain4": [[0, 1, None, None], [1, 0, 1, None],
               [None, 1, 0, 1], [None, None, 1, 0]],
    "ring4": [[0, 1, None, 1], [1, 0, 1, None],
              [None, 1, 0, 1], [1, None, 1, 0]],
    "pair": [[0, 1], [1, 0]],
    "zero-link": [[0, 0, None], [1, 0, 1], [None, 1, 0]],
    "ring6": [[0 if i == j else 1 if (i - j) % 6 in (1, 5) else None
               for j in range(6)] for i in range(6)],
}


def single_dm_delayed_spec(rng, T=None, n=None):
    n = n or int(rng.integers(1, 3))
    m = n
    T = T or int(rng.integers(1, 6))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    Q = rand_psd(rng, n)
    R = rand_pd(rng, m)
    S = 0.1 * rng.normal(size=(n, m))
    while np.linalg.eigvalsh(np.block([[Q, S], [S.T, R]]))[0] < 0:
        S *= 0.5
    return TeamSpec(
        n_dm=1, horizon=T,
        dynamics=Homogeneous(A=A, B=B),
        cost=CostSpec(Q=Q, R=R, S=S),
        noise=NoiseSpec(sigma_w=rand_psd(rng, n, scale=0.5, ridge=0.05),
                        init_diag=rand_pd(rng, n),
                        init_offdiag=np.zeros((n, n))),
        info=Delayed(delays=((0.0,),)),
    )


# ---------------------------------------------------------------------------
# reference formulas and checks that only the tests use


def closed_form_cost_variants(spec, policy):
    """Trace decompositions of the two-agent optimal cost.

    The exact value satisfies the completion-of-squares identity

        J = (2/T) [ tr(P_0 Sd) + sum_t tr(P_{t+1} W)
                    + sum_t tr(L_t^T (R + B^T P_{t+1} B) L_t C1)
                    + sum_t E(u_t^{1,T} R~ u_t^2) ],

    returned under the key "identity" (it matches moment propagation to
    machine precision).  The keyed entries are published index variants of a
    looser trace formula (quadratic term without the R part, cross term in
    powers of A^T); none reproduces the exact value in general, and the
    report exists to quantify their gaps — see the key "best_variant".
    """
    if policy.mode != tree.n_dm(2):
        raise ValueError("closed-form cost applies to the two-agent tree mode")
    T = policy.horizon
    p = tree._params(spec, policy.mode)
    A, B, Sigma, Sd = p.A, p.B, p.Sigma, p.Sd
    K, L, P = policy.K, policy.L, tree.solve_k_p(spec, T)[1]
    C1 = Sigma @ Sd @ Sigma.T
    base = float(np.trace(P[0] @ Sd))
    LT = L.swapaxes(1, 2)
    noise = float(np.einsum("tij,ji->", P[1:], p.W))
    quad = float(np.einsum("tii->", LT @ B.T @ P[1:] @ B @ L @ C1))
    quad_r = float(np.einsum("tii->",
                             LT @ (p.R + B.T @ P[1:] @ B) @ L @ C1))
    # exact cross-pair control correlation sum_t E(u1' R~ u2): T times the
    # cost of the stacked pair loop that weighs only the cross control term
    cross_exact = T * propagate(stacked_loop(
        p, np.stack([K, K]), np.stack([L, L]), 0.0, 0.5, 0.0)).cost

    exact = tree.predicted_cost(spec, policy)
    out = {
        "exact": exact,
        "identity": (2.0 / T) * (base + noise + quad_r + cross_exact),
    }
    for exp_shift in (0, -1):
        cross = 0.0
        for t in range(1, T):
            Apow = np.linalg.matrix_power(A.T, max(t + exp_shift, 0))
            cross += float(np.trace(Apow @ P[t + 1] @ B @ L[t] @ Sigma @ Sd))
        key = f"literal A^{{t{'-1' if exp_shift else ''}}}"
        out[key] = (2.0 / T) * (base + noise + quad + cross)
    literal = {k: v for k, v in out.items() if k.startswith("literal")}
    out["best_variant"] = min(literal, key=lambda k: abs(literal[k] - exact))
    return out


def combine(p1, p2, a):
    """Pointwise convex combination a*p1 + (1-a)*p2 of affine profiles."""
    if (p1.mode != p2.mode or p1.K.shape != p2.K.shape
            or p1.L.shape != p2.L.shape):
        raise ValueError("profiles must share mode, size, and horizon")
    return TreePolicySet(mode=p1.mode, K=a * p1.K + (1 - a) * p2.K,
                         L=a * p1.L + (1 - a) * p2.L)


def convex_combination_check(spec, p1, p2, a, n_rollouts, seed):
    """J(a p1 + (1-a) p2) <= a J(p1) + (1-a) J(p2) under common random
    numbers; returns (lhs, rhs, 3-SE half width of lhs - rhs)."""
    c1, c2, cm = _tree_crn(spec, p1.horizon, n_rollouts, seed, p1, p2,
                           combine(p1, p2, a))
    gap = cm - (a * c1 + (1 - a) * c2)
    return (float(np.mean(cm)), float(np.mean(a * c1 + (1 - a) * c2)),
            3.0 * _se(gap))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
