"""Brute-force optimum of a scalar delayed-sharing team in primitive form.

With n = m = 1, the primitive variables xi = (x_0, w_0, ..., w_{T-2}) of N
agents (N T entries, identity covariance) drive the stacked states
X = (x_0, ..., x_{T-1}) as X = P xi + H U, U = (u_0, ..., u_{T-1}).  A
linear policy U = Theta xi is admissible when u_t^i reads x_0^j only for
t >= E[i, j] and w_s^j only for s <= t - 1 - E[i, j], E the shortest-path
delays.  That information is partially nested, so the best admissible
linear policy is optimal (Ho & Chu, IEEE TAC 1972), and since
E xi xi' = I the cost separates over the columns of Theta: each column is
one small solve on its admissible rows.  O(N T (N T)^3) time.

Nothing here comes from ``teamlqg.delayed``, ``teamlqg.tree`` or
``teamlqg.moments``.
"""

import numpy as np


def shortest_delays(delays):
    """All-pairs shortest-path delays over the links (Floyd-Warshall)."""
    E = np.array(delays, dtype=float)
    for k in range(len(E)):
        E = np.minimum(E, E[:, [k]] + E[[k], :])
    return E


def admissible(delays, T):
    """(N T, N T) mask: entry (t N + i, k) is True when u_t^i may read
    primitive k, with x_0^j at k = j and w_s^j at k = (s + 1) N + j."""
    E = shortest_delays(delays)
    N = len(E)
    t = np.arange(T)[:, None, None, None]
    s = np.arange(T)[None, None, :, None] - 1     # -1 marks x_0
    lag = E[None, :, None, :]                      # (t, i, s, j)
    ok = np.where(s < 0, t >= lag, s <= t - 1 - lag)
    return np.broadcast_to(ok, (T, N, T, N)).reshape(N * T, N * T)


def optimal_cost(A, B, Q, R, S, delays, T):
    """The least (1/T) E sum_{t<T} (x_t'Q x_t + 2 x_t'S u_t + u_t'R u_t)
    over admissible linear policies, and its Theta.  A, B, Q, R (N, N) and
    S (N, N) are the stacked scalar-agent matrices."""
    N = len(A)
    powers = [np.linalg.matrix_power(A, k) for k in range(T)]
    P = np.zeros((N * T, N * T))
    H = np.zeros((N * T, N * T))
    for t in range(T):
        rows = slice(t * N, (t + 1) * N)
        P[rows, :N] = powers[t]
        for s in range(t):
            P[rows, (s + 1) * N:(s + 2) * N] = powers[t - 1 - s]
            H[rows, s * N:(s + 1) * N] = powers[t - 1 - s] @ B
    eye = np.eye(T)
    Qb, Rb, Sb = np.kron(eye, Q), np.kron(eye, R), np.kron(eye, S)
    M = H.T @ Qb @ H + H.T @ Sb + Sb.T @ H + Rb
    G = H.T @ Qb @ P + Sb.T @ P
    mask = admissible(delays, T)
    Theta = np.zeros((N * T, N * T))
    total = np.trace(P.T @ Qb @ P)
    for k in range(N * T):
        a = mask[:, k]
        Theta[a, k] = -np.linalg.solve(M[np.ix_(a, a)], G[a, k])
        total += G[a, k] @ Theta[a, k]
    return total / T, Theta
