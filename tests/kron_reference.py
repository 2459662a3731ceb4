"""Kronecker reference for the tree coupling sweep.

The unsplit form of ``teamlqg.tree``'s coupling solves.  At horizon T, one
backward Riccati sweep in the n^2-dimensional state vec(M), with an
eigendecomposition of every stage pivot, after an unbatched K/P recursion.
At the infinite horizon, one n^2-dimensional DARE, one n^2 x 2n^2 Stein
equation and a forward pass in (vec M_t, vec Yd_t, vec Yo_t).  The package
solves the same problems as n per-mode problems on (A, B); the tests
compare the two.
"""

import numpy as np

from teamlqg import tree
from teamlqg.linalg import kron, sym
from teamlqg.riccati import RiccatiError, dare_solve, riccati_step, stein_solve


def reference_k_p(spec, T):
    """K (T, m, n) and P (T + 1, n, n) by one ``riccati_step`` per stage."""
    A, B = spec.dynamics.A, spec.dynamics.B
    Q, R = sym(spec.cost.Q), sym(spec.cost.R)
    P = np.zeros((T + 1, spec.n, spec.n))
    K = np.empty((T, spec.m, spec.n))
    for t in range(T - 1, -1, -1):
        P[t], K[t] = riccati_step(A, B, Q, R, P[t + 1])
    return K, P


def reference_solve(spec, T, mode):
    """(K, P, L) of the optimal symmetric policy by the Kronecker sweep."""
    K, P = reference_k_p(spec, T)
    p = tree._params(spec, mode)
    if np.all(p.Rt == 0.0) and np.all(p.Qt == 0.0):
        L = np.zeros((T, spec.m, spec.n))
    else:
        L = coupling_sweep(p, K)
    return K, P, L


def sweep_data(p):
    """Ak, Bk, Qk, Rk of the sweep without its 1/T factor, and the L = 0
    cross moments (Yd_0, Yo_0); vec(X Z Y) = kron(X, Y^T) vec(Z)."""
    I = np.eye(p.A.shape[0])
    Cd = p.alpha**2 * p.Sigma @ p.Sd @ p.Sigma.T
    Co = p.alpha**2 * p.Sigma @ p.So @ p.Sigma.T
    Qk = p.a * kron(p.Q, Cd) + p.q * kron(p.Qt, Co)
    Rk = p.a * kron(p.R, Cd) + p.b * kron(p.Rt, Co)
    Y0 = p.alpha * np.stack([p.Sd, p.So]) @ p.Sigma.T
    return kron(p.A, I), kron(p.B, I), Qk, Rk, Y0


def pivot_inverse(H, where):
    """Inverse of a sweep pivot, which must be positive definite with
    condition number at most 1e12."""
    w, V = np.linalg.eigh(sym(H))
    if not (w[0] > 0.0 and w[-1] <= 1e12 * w[0]):
        raise tree.CouplingSystemError(
            f"coupling system singular at {where}: pivot eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}]; check Sigma/R_tilde for degenerate "
            "combinations")
    return (V / w) @ V.T


def coupling_sweep(p, K):
    """Exact minimizer over L of the cost of u_t^i = K_t x_t^i + L_t c^i.

    With x_t^i = y_t^i + M_t c^i and N_t = K_t M_t + L_t, the L-dependent
    part of stage t's cost is (1/T) times

        <M, a Q M Cd + q Qt M Co> + <N, a R N Cd + b Rt N Co>
        + 2 <M, a Q Yd + q Qt Yo> + 2 <N, a R K Yd + b Rt K Yo>,

    an LQ problem in the state vec(M) and control vec(N) with an affine
    term.  A backward pass gives N_t = F_t vec(M_t) + f_t and a forward
    pass from M_0 = 0 gives L_t = N_t - K_t M_t.
    """
    n, m = p.B.shape
    T = len(K)
    c1 = 1.0 / T
    Ak, Bk, Qk, Rk, Y0 = sweep_data(p)
    Qk, Rk = c1 * Qk, c1 * Rk

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
        Hinv = pivot_inverse(Rk + Bk.T @ PB, f"stage {t} of {T}")
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


def reference_stationary_schedule(p, K, T):
    """The first T stages (T, m, n) of the stationary coupling schedule L of
    the sweep at the infinite horizon with K stationary, as
    ``tree.solve_infinite_tree`` realizes it.

    Its value Pk solves the DARE of (Ak, Bk, Qk, Rk), with pivot
    H = Rk + Bk^T Pk Bk and feedback F.  Its affine terms are Sy y_t and
    Ry y_t in y_t = (vec Yd_t, vec Yo_t), with y_{t+1} = Ay y_t, so its
    co-state is X y_t, where X = Psi + Phi^T X Ay with Phi = Ak + Bk F and
    Psi = Sy + F^T Ry.  The forward pass starts from M_0 = 0.
    """
    n, m = p.B.shape
    I = np.eye(n)
    Ak, Bk, Qk, Rk, Y0 = sweep_data(p)
    pivot_inverse(Rk, "the last stage of every horizon")   # pivot Rk / T
    Ay = kron(np.eye(2), kron(p.A + p.B @ K, I))
    Sy = np.hstack([p.a * kron(p.Q, I), p.q * kron(p.Qt, I)])
    Ry = np.hstack([p.a * kron(p.R @ K, I), p.b * kron(p.Rt @ K, I)])
    try:
        Pk = dare_solve(Ak, Bk, Qk, Rk).P
        Hinv = pivot_inverse(Rk + Bk.T @ Pk @ Bk, "the stationary stage")
        F = -Hinv @ Bk.T @ Pk @ Ak
        X = stein_solve((Ak + Bk @ F).T, Sy + F.T @ Ry, Ay)
    except (RiccatiError, np.linalg.LinAlgError) as exc:
        raise tree.CouplingSystemError(
            f"stationary coupling sweep: {exc}") from exc

    # z_t = (vec M_t, y_t): z_{t+1} = G z_t and vec L_t = C z_t
    E = -Hinv @ (Ry + Bk.T @ X @ Ay)
    G = np.block([[Ak + Bk @ F, Bk @ E], [np.zeros((2 * n * n, n * n)), Ay]])
    C = np.hstack([F - kron(K, I), E])
    z, L = np.concatenate([np.zeros(n * n), Y0.ravel()]), np.empty((T, m * n))
    for t in range(T):
        L[t] = C @ z
        z = G @ z
    return L.reshape(T, m, n)
