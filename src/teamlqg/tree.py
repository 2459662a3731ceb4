"""Optimal symmetric policies for tree-information LQG teams.

The own-state feedback gains K_t and value matrices P_t come from the
standard backward Riccati recursion and are independent of every coupling
quantity.  The initial-state coupling gains L_t minimize the expected cost,
an exact convex quadratic in the stacked L gains.  Splitting the closed loop
into its L = 0 part and a feedforward matrix M_t driven by the coupling
statistic turns that minimization into a deterministic LQ problem in M_t,
which the covariances of the coupling statistic split into n independent
n-dimensional LQ problems on (A, B).  One backward recursion, batched over
the team's weights and the n modes', gives K_t, P_t and every mode's
feedback, and two batched passes give L_t, in O(T n^4) time; at the
infinite horizon the same modes take one DARE each, one stacked Stein
equation and one forward pass.  The exact cost of any schedule, and its
gradient in L, is the cost of the two-agent closed loop of one exchangeable
pair, propagated by ``moments``, with the pair weighed as ``cost_weights``
states (see CostSpec).
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
    P, F, _ = _value_recursion(A, B, sym(spec.cost.Q)[None],
                               sym(spec.cost.R)[None], T)
    return F[:, 0], P[:, 0]


def _value_recursion(A, B, Q, R, T, U=None):
    """Backward Riccati recursions from P_T = 0 on one (A, B) for a stack of
    stage weights Q (k, n, n) and R (k, m, m), batched per stage.

    Returns P (T + 1, k, n, n), the feedback F_t = -H_t^{-1} B^T P_{t+1} A
    (T, k, m, n) and the pivots H_t = R + B^T P_{t+1} B (T, k, m, m).
    Entry 0 is the team's K/P recursion, and a singular pivot of it raises
    RiccatiError.  With U, entries 1..k-1 are the modes of the coupling
    sweep (``_solve``), whose pivots must pass ``_check_pivots``: a
    per-stage Cholesky stops at the first stage whose pivots are not
    positive definite, and their condition numbers in the original
    coordinates are checked after the loop.
    """
    k, n, m = len(Q), A.shape[0], B.shape[1]
    AB = np.hstack([A, B])
    P = np.zeros((T + 1, k, n, n))
    F = np.empty((T, k, m, n))
    H = np.empty((T, k, m, m))
    for t in range(T - 1, -1, -1):
        # [A B]' P [A B] holds A'PA, G = B'PA and B'PB
        S = AB.T @ P[t + 1] @ AB
        G = S[:, n:, :n]
        np.add(R, S[:, n:, n:], out=H[t])
        try:
            X = np.linalg.solve(H[t], G)
            if U is not None:
                np.linalg.cholesky(H[t, 1:])
        except np.linalg.LinAlgError:
            if U is None:
                raise RiccatiError("R + B^T P B is not invertible") from None
            # a singular team pivot at any stage is a RiccatiError first,
            # as when K/P are solved before the coupling sweep
            _value_recursion(A, B, Q[:1], R[:1], T)
            _check_pivots(H[t:, 1:], U, f"stage {{}} of {T}", t)
            raise _pivot_error(_pivot_eigvals(H[t:t + 1, 1:], U)[0],
                               f"stage {t} of {T}") from None
        np.negative(X, out=F[t])
        P[t] = sym(Q + S[:, :n, :n] - G.swapaxes(1, 2) @ X)
    if U is not None:
        _check_pivots(H[:, 1:], U, f"stage {{}} of {T}")
    return P, F, H


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

    @property
    def coupled(self):
        # without R~ and Q~, or with Sigma = 0 (so c^i = 0), L = 0 is exact
        return bool((self.Rt.any() or self.Qt.any()) and self.Sigma.any())


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
    quadratic in the stacked L; its exact minimizer comes from n per-mode
    Riccati recursions batched with the K/P recursion (see ``_solve``).
    Raises CouplingSystemError when a stage pivot of the coupling sweep is
    not positive definite or has condition number above 1e12, i.e. when
    the cost is not strictly convex in L.
    """
    _, _, L, G = _solve(spec, T, mode)
    return L, G


def _solve(spec: TeamSpec, T: int, mode: Population):
    """K, P, L and G of the optimal symmetric policy at horizon T.

    Write x_t^i = y_t^i + M_t c^i, where y is the L = 0 loop and M_0 = 0.
    With N_t = K_t M_t + L_t the feedforward matrix obeys
    M_{t+1} = A M_t + B N_t, and u_t^i = K_t y_t^i + N_t c^i.  With the
    covariances Cd = E(c^i c^i'), Co = E(c^i c^j') of the coupling
    statistic and the L = 0 cross moments Yd_t = E(y_t^i c^i'),
    Yo_t = E(y_t^i c^j'), the L-dependent part of stage t's cost is (1/T)
    times

        <M, a Q M Cd + q Qt M Co> + <N, a R N Cd + b Rt N Co>
        + 2 <M, S_t> + 2 <N, R_t>,
        S_t = a Q Yd_t + q Qt Yo_t,   R_t = a R K_t Yd_t + b Rt K_t Yo_t,

    a deterministic LQ problem in M.  W with W' Cd W = I and W' Co W =
    diag(d) splits it: with M = M' W' and N = N' W', column j of M' is an
    LQ problem on (A, B) with weights (a Q + q d_j Qt) / T and
    (a R + b d_j Rt) / T and affine terms (S_t W)_j / T, (R_t W)_j / T.
    One batched backward recursion gives K, P and every mode's feedback
    F_t; the affine co-state and the forward pass from M'_0 = 0 are one
    batched product per stage, and L_t = (N'_t - K_t M'_t) W'.  The
    propagators are G_t = Psi_t + alpha M_t Sigma, with Psi the L = 0
    loop's, which also carries Yd and Yo.  The pivot of the unsplit sweep,
    sum_j H_j kron u_j u_j' with u_j the columns of W^{-T}, is a Schur
    complement of the Hessian of the cost in L, so the Hessian is positive
    definite exactly when every mode pivot H_j is.
    """
    p = _params(spec, mode)
    n, m = p.B.shape
    team = p.Q[None], p.R[None]
    if not p.coupled:
        P, F, _ = _value_recursion(p.A, p.B, *team, T)
        K = F[:, 0]
        return K, P[:, 0], np.zeros((T, m, n)), _loop_products(p, K, np.eye(n))

    c1 = 1.0 / T
    try:
        Y0, W, U, Qm, Rm = _modes(p, c1, f"stage {T - 1} of {T}")
    except CouplingSystemError:
        # a singular team pivot at any stage is a RiccatiError first
        _value_recursion(p.A, p.B, *team, T)
        raise
    P, F, H = _value_recursion(p.A, p.B, np.concatenate([team[0], Qm]),
                               np.concatenate([team[1], Rm]), T, U)
    K, Fm = F[:, 0], F[:, 1:]

    Z = _loop_products(p, K, np.hstack([np.eye(n), *Y0]))
    Psi, Yd, Yo = Z[..., :n], Z[..., n:2 * n], Z[..., 2 * n:]
    # affine terms of mode j in row j
    s = (c1 * (p.a * p.Q @ Yd + p.q * p.Qt @ Yo) @ W).swapaxes(1, 2)
    r = (c1 * (p.a * p.R @ K @ Yd + p.b * p.Rt @ K @ Yo) @ W).swapaxes(1, 2)

    # co-state v_t = s_t + F_t' r_t + Phi_t' v_{t+1} in rows, Phi = A + B F,
    # and feedforward f_t = -H_t^{-1} (r_t + B' v_{t+1}) (H_t is symmetric)
    Phi = p.A + p.B @ Fm
    c = s + (r[:, :, None] @ Fm)[:, :, 0]
    v = np.zeros((T + 1, n, 1, n))
    for t in range(T - 1, -1, -1):
        v[t] = c[t, :, None] + v[t + 1] @ Phi[t]
    f = -np.linalg.solve(H[:, 1:], (r + v[1:, :, 0] @ p.B)[..., None])[..., 0]

    # M'_{t+1} = Phi_t M'_t + B f_t from M'_0 = 0, mode j's column in row j
    x = np.zeros((T, n, n, 1))
    Bf = (f @ p.B.T)[..., None]
    for t in range(T - 1):
        x[t + 1] = Phi[t] @ x[t] + Bf[t]
    Lm = ((Fm - K[:, None]) @ x)[..., 0] + f
    L = Lm.swapaxes(1, 2) @ W.T
    G = Psi + p.alpha * x[..., 0].swapaxes(1, 2) @ W.T @ p.Sigma
    return K, P[:, 0], L, G


def _modes(p: _Params, scale, where):
    """The coupling problem's modes (see ``_solve``): Y0 = (Yd_0, Yo_0), W
    with W' Cd W = I and W' Co W = diag(d), U = W^{-T}, and the weights
    scale (a Q + q d_j Qt) and scale (a R + b d_j Rt).  A singular Cd makes
    the pivot scale (a R kron Cd + b Rt kron Co) singular, an error raised
    at ``where``."""
    Y0 = p.alpha * np.stack([p.Sd, p.So]) @ p.Sigma.T
    Cd, Co = p.alpha * p.Sigma @ Y0
    try:
        C = np.linalg.cholesky(sym(Cd))
    except np.linalg.LinAlgError:
        Rk = scale * (p.a * kron(p.R, Cd) + p.b * kron(p.Rt, Co))
        raise _pivot_error(np.linalg.eigvalsh(sym(Rk)), where) from None
    Ci = np.linalg.inv(C)
    d, V = np.linalg.eigh(sym(Ci @ Co @ Ci.T))
    dj = d[:, None, None]
    return (Y0, Ci.T @ V, C @ V, scale * (p.a * p.Q + p.q * dj * p.Qt),
            scale * (p.a * p.R + p.b * dj * p.Rt))


def _loop_products(p: _Params, K, Z0):
    """Z_t = (A + B K_{t-1}) ... (A + B K_0) Z0 for t < T = len(K)."""
    Phi = p.A + p.B @ K
    Z = np.empty((len(K), *Z0.shape))
    Z[0] = Z0
    for t in range(len(K) - 1):
        Z[t + 1] = Phi[t] @ Z[t]
    return Z


def _pivot_eigvals(H, U):
    """Eigenvalues of the unsplit sweep's pivots sum_j H[:, j] kron u_j u_j'
    for the mode pivots H (S, k, m, m) and the columns u_j of U."""
    S, k, m, _ = H.shape
    n = len(U)
    uu = (U.T[:, :, None] * U.T[:, None, :]).reshape(k, n * n)
    Hk = (H.reshape(S, k, m * m).swapaxes(1, 2) @ uu).reshape(S, m, m, n, n)
    return np.linalg.eigvalsh(Hk.swapaxes(2, 3).reshape(S, m * n, m * n))


def _check_pivots(H, U, where, t0=0):
    """Raise at the last stage t0 + s whose original-coordinate pivot is not
    positive definite or has condition number above 1e12, which is the
    stage the unsplit backward sweep would stop at; ``where`` names it,
    with {} for its index."""
    w = _pivot_eigvals(H, U)
    bad = np.flatnonzero(~_pivot_ok(w))
    if bad.size:
        raise _pivot_error(w[bad[-1]], where.format(t0 + bad[-1]))


def _pivot_ok(w):
    """Sorted pivot eigenvalues (..., k) of a strictly convex stage."""
    return (w[..., 0] > 0.0) & (w[..., -1] <= 1e12 * w[..., 0])


def _pivot_error(w, where):
    return CouplingSystemError(
        f"coupling system singular at {where}: pivot eigenvalues in "
        f"[{w[0]:.3e}, {w[-1]:.3e}]; check Sigma/R_tilde for degenerate "
        "combinations")


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
    K, P, L, G = _solve(spec, T, mode)
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
    if np.any(spec.cost.r_tilde_or_zero(spec.m)):
        # with K stationary, Q~ alone gives L = 0, so only R~ needs a schedule
        p = _params(spec, mode)
        if p.coupled:
            L = _stationary_schedule(p, sol.K, radius)
    live = np.flatnonzero(~(np.linalg.norm(L, axis=(1, 2)) < DECAY_TOL))
    decay_horizon = int(live[-1]) + 1 if live.size else 0
    return InfiniteTreePolicy(mode=mode, K=sol.K, P=sol.P, L=L,
                              decay_horizon=decay_horizon,
                              horizon_used=len(L), average_cost=avg_cost,
                              closed_loop_radius=radius)


def _stationary_schedule(p: _Params, K, radius):
    """The coupling problem of ``_solve`` at the infinite horizon with K
    stationary, in the same modes (``_modes``, without 1/T).

    Mode j's value P_j solves the DARE of (A, B, Q_j, R_j), with pivot
    H_j = R_j + B' P_j B and feedback F_j.  Its affine terms are Sy y_t and
    Ry y_t in y_t = (Yd_t w_j, Yo_t w_j), with y_{t+1} = Ay y_t, so its
    co-state is X_j y_t, where X_j = Psi_j + Phi_j' X_j Ay with
    Phi_j = A + B F_j and Psi_j = Sy + F_j' Ry.  The forward pass from
    M'_0 = 0 steps all modes as one flat state, reads L_t and
    z_t = (M_t, Yd_t, Yo_t) in the original coordinates (M = M' W',
    Y = Y' U'), and ends at the first stage where both are below DECAY_TOL.
    """
    n, m = p.B.shape
    last = "the last stage of every horizon"
    Y0, W, U, Qm, Rm = _modes(p, 1.0, last)
    _check_pivots(Rm[None], U, last)
    Ay = np.zeros((2 * n, 2 * n))
    Ay[:n, :n] = Ay[n:, n:] = p.A + p.B @ K
    Sy = np.hstack([p.a * p.Q, p.q * p.Qt])
    Ry = np.hstack([p.a * p.R @ K, p.b * p.Rt @ K])
    try:
        sols = [dare_solve(p.A, p.B, Qj, Rj) for Qj, Rj in zip(Qm, Rm)]
        H = Rm + p.B.T @ np.stack([sol.P for sol in sols]) @ p.B
        _check_pivots(H[None], U, "the stationary stage")
        F = np.stack([sol.K for sol in sols])
        Phi = p.A + p.B @ F
        X = stein_solve(Phi.swapaxes(1, 2), Sy + F.swapaxes(1, 2) @ Ry, Ay)
        E = -np.linalg.solve(H, Ry + p.B.T @ X @ Ay)
    except (RiccatiError, np.linalg.LinAlgError) as exc:
        raise CouplingSystemError(f"stationary coupling sweep: {exc}") from exc

    # mode j's state (M'_t e_j, y_t) steps by [[Phi_j, B E_j], [0, Ay]],
    # and L'_t e_j = (F_j - K) M'_t e_j + E_j y_t
    G, j = np.zeros((n, 3 * n, n, 3 * n)), np.arange(n)
    G[j, :n, j, :n] = Phi
    G[j, :n, j, n:] = p.B @ E
    G[j, n:, j, n:] = Ay
    G = G.reshape(3 * n * n, 3 * n * n)
    # read-out of (vec L_t, vec M_t, vec Yd_t, vec Yo_t) from the flat state
    CL = np.einsum("jra,cj->rcja", np.concatenate([F - K, E], axis=2), W)
    Cz = np.einsum("bra,bcj->brcja", np.eye(3 * n).reshape(3, n, 3 * n),
                   np.stack([W, U, U]))
    C = np.vstack([CL.reshape(m * n, -1), Cz.reshape(3 * n * n, -1)])
    x = np.hstack([np.zeros((n, n)), *(Y0 @ W).swapaxes(1, 2)]).ravel()
    L = []
    for t in range(STAGE_CAP):
        o = C @ x
        L.append(o[:m * n])
        if max(L[t] @ L[t], o[m * n:] @ o[m * n:]) < DECAY_TOL**2:
            return np.reshape(L, (-1, m, n))
        x = G @ x
    raise CouplingSystemError(
        f"coupling schedule not below {DECAY_TOL:.0e} at stage {t} (|L_t| = "
        f"{np.linalg.norm(L[t]):.3e}); spectral radii {radius:.6g} of A + B K"
        f" and {max(map(spectral_radius, Phi)):.6g} of the modes' A + B F_j")


# ---------------------------------------------------------------------------
# mean-field limit


def meanfield_limit_policy(spec: TeamSpec, T: int) -> TreePolicy:
    """Optimal policy of the infinite-population mean-field team.

    The N-agent weights (N, 2N, 2N) of ``mean_field(N)`` are N times the
    limit weights (1, 2, 2), so the limit cost has the same minimizer; one
    sweep at ``mean_field_limit()`` gives it exactly.
    """
    return solve_tree(spec, T, mode=mean_field_limit())
