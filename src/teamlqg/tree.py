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
infinite horizon the same modes take one DARE each and one stacked Stein
equation, which give the schedule exactly as a linear realization
L_t = C G^t z0 on 3n^2 states.  ``_price`` gives the exact cost of any
tree-class profile, and its gradient, from one loop per agent in O(N T n^3)
time, under the weights of ``cost_weights`` spread over its agents and
pairs (``spread_weights``); a symmetric schedule is priced as one
exchangeable pair (see CostSpec).
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
        least = {"n_dm": 1, "mean_field_N": 2}.get(self.kind)
        if least and (self.n is None or self.n < least):
            raise ValueError(f"{self.kind} needs a population size n >= {least}")


def n_dm(n):
    return Population("n_dm", n)


def mean_field(n):
    return Population("mean_field_N", n)


def mean_field_limit():
    return Population("mean_field_limit")


def cost_weights(mode: Population):
    """(a, b, q, alpha): total-cost weights of tr(Q Sd)+tr(R Ud), tr(Rt Uo),
    tr(Qt So), and the scale of the coupling statistic c^i = alpha*Sigma*x0^i;
    the one statement of each kind's pair convention (see CostSpec), which
    every price spreads over a profile's agents (``spread_weights``).
    """
    N = mode.n
    if mode.kind == "n_dm":
        return float(N), float(N * (N - 1)), 0.0, float(N - 1)
    if mode.kind == "mean_field_N":
        return float(N), 2.0 * N, 2.0 * N, 1.0
    # mean_field_limit: per-agent cost of the infinite-population problem
    return 1.0, 2.0, 2.0, 1.0


def spread_weights(a, b, q, N):
    """(own, cR, cQ): the team weights (a, b, q) of ``cost_weights`` spread
    over N agents, a / N each, and their N (N - 1) ordered pairs,
    b / (N (N - 1)) and q / (N (N - 1)) each; one agent has no pairs."""
    own, pairs = a / N, N * (N - 1)
    return (own, b / pairs, q / pairs) if pairs else (own, 0 * b, 0 * q)


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


def tree_dynamics(spec: TeamSpec):
    """(A, B) of a spec that the tree-class solvers take.  Every tree-class
    solve, exact price and rollout starts here, whichever mode it is given,
    so blocked dynamics and information without a tree mode
    (``default_mode``) are refused here, with ValueError."""
    A, B = homogeneous_dynamics(spec)
    default_mode(spec)
    return A, B


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
        # L = 0 is exact without pair terms b R~, q Q~ or with alpha Sigma = 0
        return bool(((self.b * self.Rt).any() or (self.q * self.Qt).any())
                    and (self.alpha * self.Sigma).any())


def _params(spec: TeamSpec, mode: Population) -> _Params:
    a, b, q, alpha = cost_weights(mode)
    A, B = tree_dynamics(spec)
    return _Params(
        A=A,
        B=B,
        Q=sym(spec.cost.Q),
        R=sym(spec.cost.R),
        Rt=sym(spec.cost.R_tilde),
        Qt=sym(spec.cost.Q_tilde),
        Sigma=conditional_gain(spec.noise),
        Sd=sym(spec.noise.init_diag),
        So=sym(spec.noise.init_offdiag),
        W=sym(spec.noise.sigma_w),
        a=a,
        b=b,
        q=q,
        alpha=alpha,
    )


def _price(p: _Params, Ks, Ls, want_grad=False):
    """Exact cost J of N agents running u_t^i = Ks[i, t] x_t^i + Ls[i, t] c^i
    ((N, T, m, n) gains) under the stage cost own * sum_i (x^i' Q x^i
    + u^i' R u^i) + sum_{i != j} (cR u^i' R~ u^j + cQ x^i' Q~ x^j), with
    (own, cR, cQ) the mode's weights spread over the N agents
    (``spread_weights``).

    Agent i's z^i = (x_t^i, c^i), c^i = alpha Sigma x_0^i, moves under its
    own gains M^i_t = [Ks[i, t], Ls[i, t]] and primitives alone, so one
    ``moments`` pass batched over the agents prices the own terms.  Agents
    share only x_0: z^i_t = Lam^i_t x_0^i + own noise, Lam^i_{t+1} =
    F^i_t Lam^i_t, Lam_0 = [I; alpha Sigma].  With Y^i = [M^i; I 0] Lam^i,
    S = sum_i Y^i and Om = diag(cR R~, cQ Q~), stage t's pair sums are
    tr(Om (S So S' - sum_i Y^i So Y^i')).  Returns (J, g, h), with g and h
    (N, T, m, 2n) J's gradient in every gain entry and curvature (None
    without ``want_grad``).  The pair sums add (G^Y_t[:m] + Bv' l_{t+1})
    Lam_t' to g, G^Y = (2/T) Om (S - Y^i) So, with the co-state
    l_t = E_t' G^Y_t + F_t' l_{t+1}, l_T = 0, E_t = [M_t; I 0], and nothing
    to h: one agent's gains enter them linearly.
    """
    N, T, m, n = Ls.shape
    if Ks.shape[1] != T:
        raise ValueError(f"K horizon {Ks.shape[1]} differs from L horizon {T}")
    own, cR, cQ = spread_weights(p.a, p.b, p.q, N)
    Lam0 = np.vstack([np.eye(n), p.alpha * p.Sigma])
    F0, (W, Cz) = np.eye(2 * n), np.zeros((2, 2 * n, 2 * n))
    F0[:n, :n], W[:n, :n], Cz[:n, :n] = p.A, p.W, own * p.Q
    Om = np.zeros((m + n, m + n))
    Om[:m, :m], Om[m:, m:] = cR * p.Rt, cQ * p.Qt
    loop = ClosedLoop(
        Z0=np.broadcast_to(Lam0 @ p.Sd @ Lam0.T, (N, 2 * n, 2 * n)), F0=F0,
        Bv=np.vstack([p.B, np.zeros((n, m))]),
        M=np.concatenate([Ks, Ls], axis=3).swapaxes(0, 1), W=W, Cz=Cz,
        Czv=np.zeros((2 * n, m)), Rv=own * p.R)
    mom = propagate(loop)
    Lam = np.empty((T, N, 2 * n, n))
    Lam[0] = Lam0
    for t in range(T - 1):
        Lam[t + 1] = mom.F[t] @ Lam[t]
    E = np.concatenate(
        [loop.M, np.broadcast_to(np.eye(n, 2 * n), (T, N, n, 2 * n))], axis=2)
    Y = E @ Lam
    OmD = Om @ (Y.sum(axis=1, keepdims=True) - Y) @ p.So
    J = float(np.sum(mom.cost)) + float(np.sum(OmD * Y)) / T
    if not want_grad:
        return J, None, None
    G, H = gain_sensitivity(loop, mom)
    GY, ell = (2.0 / T) * OmD, np.zeros((N, 2 * n, n))
    for t in range(T - 1, -1, -1):
        G[t] += (GY[t, :, :m] + loop.Bv.T @ ell) @ Lam[t].swapaxes(-1, -2)
        ell = E[t].swapaxes(-1, -2) @ GY[t] + mom.F[t].swapaxes(-1, -2) @ ell
    h = H[..., None] * np.diagonal(mom.Z, axis1=-2, axis2=-1)[..., None, :]
    return J, G.swapaxes(0, 1), h.swapaxes(0, 1)


def _cost_and_grad(p: _Params, K, L, want_grad=True):
    """Exact cost (and gradient in L) of u_t^i = K_t x_t^i + L_t c^i.

    L has shape (batch, T, m, n).  Under a symmetric policy the cost depends
    only on the joint moments of one exchangeable pair of agents, so each
    schedule is priced (``_price``) as two agents, weighed (a/2, b/2, q/2);
    the gradient in L sums both agents' L gradients.
    """
    Ks, n = np.stack([K, K]), L.shape[3]
    J, grad = np.empty(len(L)), np.empty_like(L)
    for k, Lk in enumerate(L):
        J[k], g, _ = _price(p, Ks, np.stack([Lk, Lk]), want_grad)
        if want_grad:
            grad[k] = g[0, ..., n:] + g[1, ..., n:]
    return J, (grad if want_grad else None)


# ---------------------------------------------------------------------------
# coupling gains


def solve_coupling_gains(spec: TeamSpec, T: int, mode: Population):
    """Coupling gains L_t with shape (T, m, n).

    The cost restricted to the symmetric class with K fixed is a convex
    quadratic in the stacked L; its exact minimizer comes from n per-mode
    Riccati recursions batched with the K/P recursion (see ``_solve``).
    Raises CouplingSystemError when a stage pivot of the coupling sweep is
    not positive definite or has condition number above 1e12, i.e. when
    the cost is not strictly convex in L.
    """
    return _solve(spec, T, mode)[1]


def _solve(spec: TeamSpec, T: int, mode: Population):
    """K and L of the optimal symmetric policy at horizon T.

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
    One batched backward recursion gives K and every mode's feedback F_t;
    the affine co-state and the forward pass from M'_0 = 0 are one batched
    product per stage, and L_t = (N'_t - K_t M'_t) W'.  The pivot
    of the unsplit sweep, sum_j H_j kron u_j u_j' with u_j the columns of
    W^{-T}, is a Schur complement of the Hessian of the cost in L, so the
    Hessian is positive definite exactly when every mode pivot H_j is.
    """
    p = _params(spec, mode)
    n, m = p.B.shape
    team = p.Q[None], p.R[None]
    if not p.coupled:
        F = _value_recursion(p.A, p.B, *team, T)[1]
        return F[:, 0], np.zeros((T, m, n))

    c1 = 1.0 / T
    try:
        Y0, W, U, Qm, Rm = _modes(p, c1, f"stage {T - 1} of {T}")
    except CouplingSystemError:
        # a singular team pivot at any stage is a RiccatiError first
        _value_recursion(p.A, p.B, *team, T)
        raise
    _, F, H = _value_recursion(p.A, p.B, np.concatenate([team[0], Qm]),
                               np.concatenate([team[1], Rm]), T, U)
    K, Fm = F[:, 0], F[:, 1:]

    # the L = 0 loop's cross moments, Yd_t and Yo_t side by side
    Y = np.empty((T, n, 2 * n))
    Y[0] = np.hstack(Y0)
    AK = p.A + p.B @ K
    for t in range(T - 1):
        Y[t + 1] = AK[t] @ Y[t]
    Yd, Yo = Y[..., :n], Y[..., n:]
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
    return K, L


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
    (T, m, n); the horizon is T.  The value matrices P_t are not kept:
    ``solve_k_p`` gives them."""

    mode: Population
    K: np.ndarray
    L: np.ndarray

    @property
    def horizon(self):
        return len(self.K)


def solve_tree(spec: TeamSpec, T: int | None = None, mode: Population | None = None):
    T = spec.horizon if T is None else T
    mode = default_mode(spec) if mode is None else mode
    K, L = _solve(spec, T, mode)
    return TreePolicy(mode=mode, K=K, L=L)


def predicted_cost(spec: TeamSpec, policy: TreePolicy) -> float:
    """Exact expected cost of a symmetric policy at its own horizon, the
    team's or, for ``mean_field_limit``, one agent's (see CostSpec), priced
    as one exchangeable pair (``_cost_and_grad``)."""
    J, _ = _cost_and_grad(_params(spec, policy.mode), policy.K,
                          np.asarray(policy.L)[None], want_grad=False)
    return float(J[0])


# ---------------------------------------------------------------------------
# infinite horizon


@dataclass(frozen=True)
class InfiniteTreePolicy:
    """Stationary policy u_t^i = K x_t^i + L_t c^i, K (m, n), P (n, n).  The
    coupling schedule is stored as its exact realization L_t = C G^t z0
    (``L``), G (3n^2, 3n^2), C (mn, 3n^2), z0 (3n^2,); without R_tilde the
    realization is empty and L_t = 0.  ``horizon_used`` is the first stage t
    whose tail energy sum_{s >= t} |L_s|^2 = z_t' X z_t is below 1e-16, X the
    observability Gramian of (G, C), so |L_s| < 1e-8 for every s >= t.  It
    is a diagnostic in gain units: the floor is absolute, so it moves under
    a change of state or input coordinates, where K, L and the costs move
    equivariantly."""

    mode: Population
    K: np.ndarray
    P: np.ndarray
    G: np.ndarray
    C: np.ndarray
    z0: np.ndarray
    horizon_used: int
    average_cost: float
    closed_loop_radius: float

    def L(self, T):
        """The first T stages of the coupling schedule, shape (T, m, n)."""
        L, z = np.empty((T, self.C.shape[0])), self.z0
        for t in range(T):
            L[t] = self.C @ z
            z = self.G @ z
        return L.reshape(T, *self.K.shape)


def solve_infinite_tree(spec: TeamSpec,
                        mode: Population | None = None) -> InfiniteTreePolicy:
    """Stationary K from the algebraic Riccati equation and the exact
    stationary coupling schedule (``_stationary_schedule``).  Raises
    RiccatiError when A + B K is unstable, CouplingSystemError when the
    coupling sweep is not strictly convex or unsolvable."""
    mode = default_mode(spec) if mode is None else mode
    if mode.kind != "n_dm":
        raise ValueError("infinite-horizon solve supports n_dm modes")
    A, B = tree_dynamics(spec)
    sol = dare_solve(A, B, sym(spec.cost.Q), sym(spec.cost.R))
    radius = spectral_radius(A + B @ sol.K)
    if not radius < 1.0:
        raise RiccatiError(
            f"stationary closed loop is unstable (spectral radius {radius:.6g})")
    a, _, _, _ = cost_weights(mode)
    avg_cost = a * float(np.trace(sol.P @ sym(spec.noise.sigma_w)))

    G, C, z0 = np.zeros((0, 0)), np.zeros((spec.m * spec.n, 0)), np.zeros(0)
    if np.any(spec.cost.R_tilde):
        # with K stationary, Q~ alone gives L = 0, so only R~ needs a schedule
        p = _params(spec, mode)
        if p.coupled:
            G, C, z0 = _stationary_schedule(p, sol.K)
    t = 0
    if z0.size:
        # rho(G) < 1: A + B K is stable and so is every mode's A + B F_j
        X, z = stein_solve(G.T, C.T @ C, G), z0
        while z @ X @ z >= 1e-16:
            z, t = G @ z, t + 1
    return InfiniteTreePolicy(mode=mode, K=sol.K, P=sol.P, G=G, C=C, z0=z0,
                              horizon_used=t, average_cost=avg_cost,
                              closed_loop_radius=radius)


def _stationary_schedule(p: _Params, K):
    """The coupling problem of ``_solve`` at the infinite horizon with K
    stationary, in the same modes (``_modes``, without 1/T), as the
    realization (G, C, z0) of L_t = C G^t z0.

    Mode j's value P_j solves the DARE of (A, B, Q_j, R_j), with pivot
    H_j = R_j + B' P_j B and feedback F_j.  Its affine terms are Sy y_t and
    Ry y_t in y_t = (Yd_t w_j, Yo_t w_j), with y_{t+1} = Ay y_t, so its
    co-state is X_j y_t, where X_j = Psi_j + Phi_j' X_j Ay with
    Phi_j = A + B F_j and Psi_j = Sy + F_j' Ry.  The state stacks every
    mode's (M'_t e_j, y_t) from M'_0 = 0, and C reads L_t in the original
    coordinates (L = L' W').
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
    C = np.einsum("jra,cj->rcja", np.concatenate([F - K, E], axis=2), W)
    z0 = np.hstack([np.zeros((n, n)), *(Y0 @ W).swapaxes(1, 2)]).ravel()
    return G.reshape(3 * n * n, -1), C.reshape(m * n, -1), z0


# ---------------------------------------------------------------------------
# mean-field limit


def meanfield_limit_policy(spec: TeamSpec, T: int) -> TreePolicy:
    """Optimal policy of the infinite-population mean-field team.

    The N-agent weights (N, 2N, 2N) of ``mean_field(N)`` are N times the
    limit weights (1, 2, 2), so the limit cost has the same minimizer; one
    sweep at ``mean_field_limit()`` gives it exactly.
    """
    return solve_tree(spec, T, mode=mean_field_limit())
