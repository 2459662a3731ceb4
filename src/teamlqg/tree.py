"""Optimal symmetric policies for tree-information LQG teams.

The own-state feedback gains K_t and value matrices P_t come from the
standard backward Riccati recursion and are independent of every coupling
quantity.  The initial-state coupling gains L_t minimize the expected cost,
an exact convex quadratic in the stacked L gains.  Splitting the closed loop
into its L = 0 part and a feedforward matrix M_t driven by the coupling
statistic turns that minimization into a deterministic LQ problem in vec(M_t),
which one backward Riccati sweep and one forward pass solve exactly in
O(T n^6) time; at the infinite horizon one DARE and one Stein equation replace
the sweep.  The exact cost of any schedule, and its gradient in L, is the cost
of the two-agent closed loop of one exchangeable pair, propagated by
``moments``, with the pair weighed as ``cost_weights`` states (see CostSpec).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kron, sym
from .model import Homogeneous, MeanFieldTree, TeamSpec, Tree, conditional_gain
from .moments import ClosedLoop, gain_sensitivity, propagate
from .riccati import (
    RiccatiError,
    dare_solve,
    riccati_step,
    spectral_radius,
    stein_solve,
)


class CouplingSystemError(RuntimeError):
    """The cost is not strictly convex in the coupling gains: a stage pivot
    of the coupling sweep is singular, indefinite or ill-conditioned."""


# ---------------------------------------------------------------------------
# population modes


@dataclass(frozen=True)
class Population:
    """Which cost form and coupling statistic the policy is optimal for.

    kind: "n_dm" (N-agent team total, statistic sum over j != i),
          "mean_field_N" (1/(N-1)-scaled coupling, statistic = average),
          "mean_field_limit" (N -> infinity policy, statistic Sigma x0^i).
    """

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("n_dm", "mean_field_N", "mean_field_limit"):
            raise ValueError(f"unknown population kind {self.kind!r}")
        if self.kind in ("n_dm", "mean_field_N") and (self.n is None or self.n < 2):
            raise ValueError(f"{self.kind} needs a population size n >= 2")


def n_dm(n):
    return Population("n_dm", n)


def mean_field(n):
    return Population("mean_field_N", n)


def mean_field_limit():
    return Population("mean_field_limit")


def cost_weights(mode: Population):
    """(a, b, q, alpha): total-cost weights of tr(Q Sd)+tr(R Ud), tr(Rt Uo),
    tr(Qt So), and the scale of the coupling statistic c^i = alpha*Sigma*x0^i;
    the one statement of each kind's pair convention (see CostSpec).
    """
    N = mode.n
    if mode.kind == "n_dm":
        return float(N), float(N * (N - 1)), 0.0, float(N - 1)
    if mode.kind == "mean_field_N":
        return float(N), 2.0 * N, 2.0 * N, 1.0
    # mean_field_limit: per-agent cost of the infinite-population problem
    return 1.0, 2.0, 2.0, 1.0


def default_mode(spec: TeamSpec) -> Population:
    if isinstance(spec.info, MeanFieldTree):
        return mean_field(spec.n_dm)
    if isinstance(spec.info, Tree):
        return n_dm(spec.n_dm)
    raise ValueError("tree solver needs Tree or MeanFieldTree information")


def homogeneous_dynamics(spec: TeamSpec):
    """(A, B) of the spec's per-agent dynamics; ValueError for blocked
    dynamics, which the tree-class solvers and the DARE do not take."""
    if not isinstance(spec.dynamics, Homogeneous):
        raise ValueError("this solver needs homogeneous dynamics (model A "
                         "and B), not A_blocks/B_blocks")
    return spec.dynamics.A, spec.dynamics.B


# ---------------------------------------------------------------------------
# K / P recursion


def solve_k_p(spec: TeamSpec, T: int):
    """Backward recursion from P_T = 0: K_t with shape (T, m, n) and P_t with
    shape (T + 1, n, n).  The gains are untouched by the coupling blocks,
    the initial-state correlation, and the noise distribution."""
    A, B = homogeneous_dynamics(spec)
    Q, R = sym(spec.cost.Q), sym(spec.cost.R)
    P = np.zeros((T + 1, spec.n, spec.n))
    K = np.empty((T, spec.m, spec.n))
    for t in range(T - 1, -1, -1):
        P[t], K[t] = riccati_step(A, B, Q, R, P[t + 1])
    return K, P


# ---------------------------------------------------------------------------
# exact quadratic cost of the symmetric affine class


@dataclass(frozen=True)
class _Params:
    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Rt: np.ndarray
    Qt: np.ndarray
    Sigma: np.ndarray
    Sd: np.ndarray
    So: np.ndarray
    W: np.ndarray
    a: float
    b: float
    q: float
    alpha: float


def _params(spec: TeamSpec, mode: Population) -> _Params:
    a, b, q, alpha = cost_weights(mode)
    n, m = spec.n, spec.m
    A, B = homogeneous_dynamics(spec)
    return _Params(
        A=A,
        B=B,
        Q=sym(spec.cost.Q),
        R=sym(spec.cost.R),
        Rt=spec.cost.r_tilde_or_zero(m),
        Qt=spec.cost.q_tilde_or_zero(n),
        Sigma=conditional_gain(spec.noise),
        Sd=sym(spec.noise.init_diag),
        So=sym(spec.noise.init_offdiag),
        W=sym(spec.noise.sigma_w),
        a=a,
        b=b,
        q=q,
        alpha=alpha,
    )


def _closed_loop(p: _Params, Ks, Ls, own, cR, cQ) -> ClosedLoop:
    """The stacked closed loop of N agents running u_t^i = Ks[i, t] x_t^i
    + Ls[i, t] c^i on z = (x_t, c), where the coupling statistic
    c^i = alpha Sigma x_0^i is held constant, so Ks[i] and Ls[i] are plain
    blocks of the feedback M and E z_0 z_0' = H Sigma_0 H' with
    H = [I; alpha (I_N kron Sigma)].

    Ks and Ls have shape (N, T, m, n).  The stage cost is
    own * sum_i (x^i' Q x^i + u^i' R u^i)
    + sum_{i != j} (cR u^i' R~ u^j + cQ x^i' Q~ x^j).
    """
    N, T, m, n = Ls.shape
    if Ks.shape[1] != T:
        raise ValueError(f"K horizon {Ks.shape[1]} differs from L horizon {T}")
    eye, off = np.eye(N), np.ones((N, N)) - np.eye(N)
    Sig0 = kron(eye, p.Sd) + kron(off, p.So)
    H = np.vstack([np.eye(N * n), p.alpha * kron(eye, p.Sigma)])
    dim = 2 * N * n
    x, o = slice(0, N * n), slice(N * n, dim)
    M = np.zeros((T, N * m, dim))
    for i in range(N):
        rows = slice(i * m, (i + 1) * m)
        M[:, rows, i * n:(i + 1) * n] = Ks[i]
        M[:, rows, N * n + i * n:N * n + (i + 1) * n] = Ls[i]
    F0 = np.zeros((dim, dim))
    F0[x, x] = kron(eye, p.A)
    F0[o, o] = np.eye(N * n)
    Bv = np.zeros((dim, N * m))
    Bv[x] = kron(eye, p.B)
    W = np.zeros((dim, dim))
    W[x, x] = kron(eye, p.W)
    Cz = np.zeros((dim, dim))
    Cz[x, x] = own * kron(eye, p.Q) + cQ * kron(off, p.Qt)
    return ClosedLoop(Z0=H @ Sig0 @ H.T, F0=F0, Bv=Bv,
                      M=M, W=W, Cz=Cz, Czv=np.zeros((dim, N * m)),
                      Rv=own * kron(eye, p.R) + cR * kron(off, p.Rt),
                      C_T=np.zeros((dim, dim)))


def _cost_and_grad(p: _Params, K, L, want_grad=True):
    """Exact cost (and gradient in L) of u_t^i = K_t x_t^i + L_t c^i.

    L has shape (batch, T, m, n).  Under a symmetric policy the cost depends
    only on the joint moments of one exchangeable pair of agents, so each
    schedule is priced on the two-agent closed loop with per-agent weights
    (a/2, b/2, q/2); the gradient in L sums both agents' L blocks of the
    loop's gain gradient.
    """
    Ks = np.stack([K, K])
    m, n = L.shape[2:]
    J, grad = np.empty(len(L)), np.empty_like(L)
    for k, Lk in enumerate(L):
        loop = _closed_loop(p, Ks, np.stack([Lk, Lk]),
                            p.a / 2, p.b / 2, p.q / 2)
        mom = propagate(loop)
        J[k] = mom.cost
        if want_grad:
            G, _ = gain_sensitivity(loop, mom)
            grad[k] = G[:, :m, 2 * n:3 * n] + G[:, m:, 3 * n:]
    return J, (grad if want_grad else None)


def exact_policy_cost(spec: TeamSpec, T: int, K, L, mode: Population) -> float:
    """Exact expected cost of the symmetric affine policy (moment propagation)."""
    p = _params(spec, mode)
    Lb = np.asarray(L, dtype=float).reshape(1, T, spec.m, spec.n)
    J, _ = _cost_and_grad(p, K, Lb, want_grad=False)
    return float(J[0])


# ---------------------------------------------------------------------------
# coupling gains


def solve_coupling_gains(spec: TeamSpec, T: int, mode: Population):
    """Coupling gains L_t with shape (T, m, n) and propagators G_t (T, n, n).

    The cost restricted to the symmetric class with K fixed is a convex
    quadratic in the stacked L; its exact minimizer comes from one backward
    Riccati sweep over the feedforward matrices (see ``_coupling_sweep``).
    Raises CouplingSystemError when a stage pivot of the sweep is not
    positive definite or has condition number above 1e12, i.e. when the
    cost is not strictly convex in L.
    """
    K, _ = solve_k_p(spec, T)
    return _coupling_gains(spec, T, mode, K)


def _coupling_gains(spec: TeamSpec, T: int, mode: Population, K):
    """solve_coupling_gains for the gains K = solve_k_p(spec, T)[0]."""
    p = _params(spec, mode)
    if np.all(p.Rt == 0.0) and np.all(p.Qt == 0.0):
        L = np.zeros((T, spec.m, spec.n))
    else:
        L = _coupling_sweep(p, K)
    return L, _propagators(spec, T, K, L, p.alpha)


def _coupling_sweep(p: _Params, K):
    """Exact minimizer over L of the cost of u_t^i = K_t x_t^i + L_t c^i.

    Write x_t^i = y_t^i + M_t c^i, where y is the L = 0 loop and M_0 = 0.
    With N_t = K_t M_t + L_t the feedforward matrix obeys
    M_{t+1} = A M_t + B N_t, and u_t^i = K_t y_t^i + N_t c^i.  With the L = 0
    cross moments Yd_t = E(y_t^i c_i^T), Yo_t = E(y_t^i c_j^T), the
    L-dependent part of stage t's cost is (1/T) times

        <M, a Q M Cd + q Qt M Co> + <N, a R N Cd + b Rt N Co>
        + 2 <M, a Q Yd + q Qt Yo> + 2 <N, a R K Yd + b Rt K Yo>,

    a deterministic LQ problem in the state vec(M) and control vec(N) with
    an affine term.  A backward pass gives N_t = F_t vec(M_t) + f_t and a
    forward pass from M_0 = 0 gives L_t = N_t - K_t M_t.  Each stage pivot
    R + B^T P_{t+1} B is a Schur complement of the Hessian of the cost in L,
    so the Hessian is positive definite exactly when every pivot is.
    """
    n, m = p.B.shape
    T = len(K)
    c1 = 1.0 / T
    Ak, Bk, Qk, Rk, Y0 = _sweep_data(p)
    Qk, Rk = c1 * Qk, c1 * Rk

    # L = 0 cross moments Yd_{t+1} = (A + B K_t) Yd_t, likewise Yo
    Y = np.empty((T, 2, n, n))
    Y[0] = Y0
    for t in range(T - 1):
        Y[t + 1] = (p.A + p.B @ K[t]) @ Y[t]
    Yd, Yo = Y[:, 0], Y[:, 1]
    s = c1 * (p.a * p.Q @ Yd + p.q * p.Qt @ Yo).reshape(T, n * n)
    r = c1 * (p.a * p.R @ K @ Yd + p.b * p.Rt @ K @ Yo).reshape(T, m * n)

    P = np.zeros((n * n, n * n))
    pv = np.zeros(n * n)
    F = np.empty((T, m * n, n * n))
    f = np.empty((T, m * n))
    for t in range(T - 1, -1, -1):
        PB = P @ Bk
        Hinv = _pivot_inverse(Rk + Bk.T @ PB, f"stage {t} of {T}")
        G = PB.T @ Ak
        F[t] = -Hinv @ G
        f[t] = -Hinv @ (r[t] + Bk.T @ pv)
        pv = s[t] + Ak.T @ pv + G.T @ f[t]
        P = Qk + Ak.T @ P @ Ak + G.T @ F[t]
        P = 0.5 * (P + P.T)

    L = np.empty((T, m, n))
    Mv = np.zeros(n * n)
    for t in range(T):
        Nv = F[t] @ Mv + f[t]
        L[t] = Nv.reshape(m, n) - K[t] @ Mv.reshape(n, n)
        Mv = Ak @ Mv + Bk @ Nv
    return L


def _sweep_data(p: _Params):
    """Ak, Bk, Qk, Rk of the coupling sweep without its 1/T factor, and the
    L = 0 cross moments (Yd_0, Yo_0); vec(X Z Y) = kron(X, Y^T) vec(Z)."""
    I = np.eye(p.A.shape[0])
    Cd = p.alpha**2 * p.Sigma @ p.Sd @ p.Sigma.T
    Co = p.alpha**2 * p.Sigma @ p.So @ p.Sigma.T
    Qk = p.a * kron(p.Q, Cd) + p.q * kron(p.Qt, Co)
    Rk = p.a * kron(p.R, Cd) + p.b * kron(p.Rt, Co)
    Y0 = p.alpha * np.stack([p.Sd, p.So]) @ p.Sigma.T
    return kron(p.A, I), kron(p.B, I), Qk, Rk, Y0


def _pivot_inverse(H, where):
    """Inverse of a pivot of the coupling sweep, which must be positive
    definite with condition number at most 1e12."""
    w, V = np.linalg.eigh(sym(H))
    if not (w[0] > 0.0 and w[-1] <= 1e12 * w[0]):
        raise CouplingSystemError(
            f"coupling system singular at {where}: pivot eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}]; check Sigma/R_tilde for degenerate "
            "combinations")
    return (V / w) @ V.T


def _propagators(spec, T, K, L, alpha):
    """G_t with E(x_t^i | x_0^i) = G_t x_0^i under the symmetric policy."""
    A, B = homogeneous_dynamics(spec)
    Sigma = conditional_gain(spec.noise)
    G = np.empty((T, spec.n, spec.n))
    G[0] = np.eye(spec.n)
    for t in range(T - 1):
        G[t + 1] = (A + B @ K[t]) @ G[t] + alpha * B @ L[t] @ Sigma
    return G


# ---------------------------------------------------------------------------
# policies and predicted cost


@dataclass(frozen=True)
class TreePolicy:
    """Affine gain schedule u_t^i = K_t x_t^i + L_t c^i for the coupling
    statistic c^i implied by ``mode`` (see Population).  K and L have shape
    (T, m, n), P shape (T + 1, n, n) and G shape (T, n, n)."""

    horizon: int
    mode: Population
    K: np.ndarray
    L: np.ndarray
    P: np.ndarray
    G: np.ndarray

    def as_dict(self):
        return {
            "kind": "tree",
            "horizon": self.horizon,
            "mode": self.mode.kind,
            "mode_n": self.mode.n,
            "K": self.K.tolist(),
            "L": self.L.tolist(),
            "P": self.P.tolist(),
            "G": self.G.tolist(),
        }


def solve_tree(spec: TeamSpec, T: int | None = None, mode: Population | None = None):
    T = spec.horizon if T is None else T
    mode = default_mode(spec) if mode is None else mode
    K, P = solve_k_p(spec, T)
    L, G = _coupling_gains(spec, T, mode, K)
    return TreePolicy(horizon=T, mode=mode, K=K, L=L, P=P, G=G)


def predicted_cost(spec: TeamSpec, T: int, policy: TreePolicy) -> float:
    """Optimal expected cost of a policy produced by this module.

    Evaluated by exact moment propagation of the two-agent closed loop
    (``exact_policy_cost``).
    """
    if T != policy.horizon:
        raise ValueError("policy horizon does not match requested horizon")
    return exact_policy_cost(spec, T, policy.K, policy.L, policy.mode)


# ---------------------------------------------------------------------------
# infinite horizon


@dataclass(frozen=True)
class InfiniteTreePolicy:
    """Stationary policy u_t^i = K x_t^i + L_t c^i, K (m, n), P (n, n).  The
    coupling schedule L has shape (horizon_used, m, n), (0, m, n) without
    R_tilde, and ends where L_t, M_t and y_t have all decayed below
    DECAY_TOL (L_t = 0 after it); ``decay_horizon`` is the first stage of
    its tail below DECAY_TOL."""

    mode: Population
    K: np.ndarray
    P: np.ndarray
    L: np.ndarray
    decay_horizon: int
    horizon_used: int
    average_cost: float
    closed_loop_radius: float

    def as_dict(self):
        return {
            "kind": "tree_infinite",
            "mode": self.mode.kind,
            "mode_n": self.mode.n,
            "K": self.K.tolist(),
            "P": self.P.tolist(),
            "L": self.L.tolist(),
            "decay_horizon": self.decay_horizon,
            "horizon_used": self.horizon_used,
            "average_cost": self.average_cost,
            "closed_loop_radius": self.closed_loop_radius,
        }


DECAY_TOL = 1e-8      # the stationary schedule ends where L, M, y are below
STAGE_CAP = 1 << 16   # stage bound of its forward pass


def solve_infinite_tree(spec: TeamSpec,
                        mode: Population | None = None) -> InfiniteTreePolicy:
    """Stationary K from the algebraic Riccati equation and the exact
    stationary coupling schedule (``_stationary_schedule``).  Raises
    RiccatiError when A + B K is unstable, CouplingSystemError when the
    coupling sweep is not strictly convex, unsolvable, or not decayed."""
    mode = default_mode(spec) if mode is None else mode
    if mode.kind != "n_dm":
        raise ValueError("infinite-horizon solve supports n_dm modes")
    A, B = homogeneous_dynamics(spec)
    sol = dare_solve(A, B, sym(spec.cost.Q), sym(spec.cost.R))
    radius = spectral_radius(A + B @ sol.K)
    if not radius < 1.0:
        raise RiccatiError(
            f"stationary closed loop is unstable (spectral radius {radius:.6g})")
    a, _, _, _ = cost_weights(mode)
    avg_cost = a * float(np.trace(sol.P @ sym(spec.noise.sigma_w)))

    L = np.zeros((0, spec.m, spec.n))
    if np.any(spec.cost.r_tilde_or_zero(spec.m) != 0.0):
        L = _stationary_schedule(_params(spec, mode), sol.K, radius)
    live = [t for t, l in enumerate(L) if not np.linalg.norm(l) < DECAY_TOL]
    decay_horizon = live[-1] + 1 if live else 0
    return InfiniteTreePolicy(mode=mode, K=sol.K, P=sol.P, L=L,
                              decay_horizon=decay_horizon,
                              horizon_used=len(L), average_cost=avg_cost,
                              closed_loop_radius=radius)


def _stationary_schedule(p: _Params, K, radius):
    """``_coupling_sweep`` at the infinite horizon, with K stationary.

    Its value Pk solves the DARE of (Ak, Bk, Qk, Rk), with pivot
    H = Rk + Bk^T Pk Bk and feedback F.  Its affine terms are Sy y_t and
    Ry y_t in y_t = (vec Yd_t, vec Yo_t), with y_{t+1} = Ay y_t, so its
    co-state is X y_t, where X = Psi + Phi^T X Ay with Phi = Ak + Bk F and
    Psi = Sy + F^T Ry.  The forward pass from M_0 = 0 ends at the first
    stage where |L_t| and |(M_t, y_t)| are below DECAY_TOL.
    """
    n, m = p.B.shape
    I = np.eye(n)
    Ak, Bk, Qk, Rk, Y0 = _sweep_data(p)
    _pivot_inverse(Rk, "the last stage of every horizon")   # pivot Rk / T
    Ay = kron(np.eye(2), kron(p.A + p.B @ K, I))
    Sy = np.hstack([p.a * kron(p.Q, I), p.q * kron(p.Qt, I)])
    Ry = np.hstack([p.a * kron(p.R @ K, I), p.b * kron(p.Rt @ K, I)])
    try:
        Pk = dare_solve(Ak, Bk, Qk, Rk).P
        Hinv = _pivot_inverse(Rk + Bk.T @ Pk @ Bk, "the stationary stage")
        F = -Hinv @ Bk.T @ Pk @ Ak
        X = stein_solve((Ak + Bk @ F).T, Sy + F.T @ Ry, Ay)
    except (RiccatiError, np.linalg.LinAlgError) as exc:
        raise CouplingSystemError(f"stationary coupling sweep: {exc}") from exc

    # z_t = (vec M_t, y_t): z_{t+1} = G z_t and vec L_t = C z_t
    E = -Hinv @ (Ry + Bk.T @ X @ Ay)
    G = np.block([[Ak + Bk @ F, Bk @ E], [np.zeros((2 * n * n, n * n)), Ay]])
    C = np.hstack([F - kron(K, I), E])
    z, L = np.concatenate([np.zeros(n * n), Y0.ravel()]), []
    for t in range(STAGE_CAP):
        L.append(C @ z)
        if max(L[t] @ L[t], z @ z) < DECAY_TOL**2:
            return np.reshape(L, (-1, m, n))
        z = G @ z
    raise CouplingSystemError(
        f"coupling schedule not below {DECAY_TOL:.0e} at stage {t} (|L_t| = "
        f"{np.linalg.norm(L[t]):.3e}); spectral radii {radius:.6g} of A + B K"
        f" and {spectral_radius(G[:n * n, :n * n]):.6g} of Ak + Bk F")


# ---------------------------------------------------------------------------
# mean-field limit


def meanfield_limit_policy(spec: TeamSpec, T: int) -> TreePolicy:
    """Optimal policy of the infinite-population mean-field team.

    The N-agent weights (N, 2N, 2N) of ``mean_field(N)`` are N times the
    limit weights (1, 2, 2), so the limit cost has the same minimizer; one
    sweep at ``mean_field_limit()`` gives it exactly.
    """
    return solve_tree(spec, T, mode=mean_field_limit())
