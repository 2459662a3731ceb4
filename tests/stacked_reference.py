"""Stacked reference for the tree-class pricer.

The closed loop of all N agents on one state z = (x_t, c) of dimension
2 N n, assembled from Kronecker blocks and propagated by ``moments``.
``teamlqg.tree._price`` prices the same profiles on N per-agent loops of
dimension 2 n plus the loadings of the shared initial states; the tests
compare the two.  O(T (N n)^3) time.
"""

import numpy as np

from teamlqg.linalg import kron
from teamlqg.moments import ClosedLoop, gain_sensitivity, propagate
from teamlqg.tree import spread_weights


def stacked_loop(p, Ks, Ls, own, cR, cQ):
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
                      Rv=own * kron(eye, p.R) + cR * kron(off, p.Rt))


def stacked_price(p, Ks, Ls, own, cR, cQ):
    """``tree._price(..., want_grad=True)`` on the stacked loop: (J, g, h)
    with g and h (N, T, m, 2n) the gradient and curvature of agent i's
    K and L entries, read off its blocks of the loop's gains."""
    N, T, m, n = Ls.shape
    loop = stacked_loop(p, Ks, Ls, own, cR, cQ)
    mom = propagate(loop)
    G, H = gain_sensitivity(loop, mom)
    h = H[:, :, None] * np.diagonal(mom.Z, axis1=1, axis2=2)[:, None]
    g, h = (np.einsum("tiakin->itakn", X.reshape(T, N, m, 2, N, n))
            for X in (G, h))
    return mom.cost, g.reshape(N, T, m, 2 * n), h.reshape(N, T, m, 2 * n)


def pair_cost_and_grad(p, K, L):
    """``tree._cost_and_grad`` of one schedule on the stacked two-agent
    loop: (J, gradient in L), the gradient summing both agents' L blocks."""
    m, n = L.shape[1:]
    loop = stacked_loop(p, np.stack([K, K]), np.stack([L, L]),
                        *spread_weights(p.a, p.b, p.q, 2))
    mom = propagate(loop)
    G, _ = gain_sensitivity(loop, mom)
    return mom.cost, G[:, :m, 2 * n:3 * n] + G[:, m:, 3 * n:]
