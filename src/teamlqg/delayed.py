"""Synthesis for one-step-delayed sharing with sparsity.

The team problem decomposes along the information graph: each node r carries
an estimator state zeta_t^r (the part of the plant state driven by noise
currently known exactly by the agents in r) with its own Riccati recursion
against the node's unique successor.  Finite-horizon gains come from the
backward recursion with X_T^r = 0, and every cost in this module
(predicted, moment-propagated, simulated) prices the stages t < T and
nothing after them, as in every class (see CostSpec):

    J_T = (1/T) E sum_{t<T} (x_t^T Q x_t + 2 x_t^T S u_t + u_t^T R u_t).

The estimator states split the plant state, x = sum_r I^{.,r} zeta^r
(Lamperski & Doyle, IEEE TAC 2015), so exact costs and rollouts run node
by node (``_node_moments``, ``step_nodes``); rollouts step x on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .info_graph import InfoGraph, build_info_graph, partition, validate_sparsity
from .linalg import kron, numerical_rank, spectral_radius, sym
from .model import Blocked, Delayed, Homogeneous, TeamSpec
from .riccati import RiccatiError, dare_solve


class NodeRecursionError(RiccatiError):
    """Inner matrix R^{rr} + B^T X B not positive definite at some node/stage."""


class RankConditionError(RiccatiError):
    """Unit-circle full-column-rank condition failed at a self-loop node."""


# ---------------------------------------------------------------------------
# stacked data


@dataclass(frozen=True)
class _Stacked:
    """Full stacked matrices of the N-agent problem plus block sizes."""

    N: int
    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray

    def part(self, M, rows, cols, row_block, col_block):
        return partition(M, rows, cols, self.N, row_block, col_block)

    def A_sr(self, s, r):
        return self.part(self.A, s, r, self.n, self.n)

    def B_sr(self, s, r):
        return self.part(self.B, s, r, self.n, self.m)

    def Q_rr(self, r):
        return self.part(self.Q, r, r, self.n, self.n)

    def R_rr(self, r):
        return self.part(self.R, r, r, self.m, self.m)

    def S_rr(self, r):
        return self.part(self.S, r, r, self.n, self.m)


def stacked_data(spec: TeamSpec) -> _Stacked:
    N, n, m = spec.n_dm, spec.n, spec.m
    if isinstance(spec.dynamics, Blocked):
        A, B = spec.dynamics.full_A(), spec.dynamics.full_B()
    elif isinstance(spec.dynamics, Homogeneous):
        A = kron(np.eye(N), spec.dynamics.A)
        B = kron(np.eye(N), spec.dynamics.B)
    else:
        raise TypeError("unsupported dynamics type")
    eye, off = np.eye(N), np.ones((N, N)) - np.eye(N)
    Q = kron(eye, sym(spec.cost.Q)) + kron(off, sym(spec.cost.Q_tilde))
    R = kron(eye, sym(spec.cost.R)) + kron(off, sym(spec.cost.R_tilde))
    S = kron(eye, spec.cost.S)
    return _Stacked(N=N, n=n, m=m, A=A, B=B, Q=Q, R=R, S=S)


def _graph_for(spec: TeamSpec) -> InfoGraph:
    if not isinstance(spec.info, Delayed):
        raise ValueError("delayed solver needs Delayed information")
    return build_info_graph(spec.info.delays)


def _check_independent_initials(spec: TeamSpec):
    if np.any(spec.noise.init_offdiag != 0.0):
        raise ValueError("the delayed-sharing recursion and its exact costs "
                         "assume independent initial states (init_offdiag = 0)")


def check_preconditions(spec: TeamSpec):
    """Sparsity validation and independent initial states (the node
    recursion and its costs assume init_offdiag = 0); raises ValueError on
    failure so solve calls fail loudly."""
    graph = _graph_for(spec)
    _check_independent_initials(spec)
    if isinstance(spec.dynamics, Blocked):
        rep = validate_sparsity(spec.info.delays, spec.dynamics)
        if not rep.ok:
            names = ", ".join(c.name for c in rep.failed())
            raise ValueError(f"delay/sparsity validation failed: {names}")
    return graph


# ---------------------------------------------------------------------------
# finite horizon


@dataclass(frozen=True)
class GraphPolicy:
    """Per-node gain schedules for u_t^i = sum_{r containing i} I^{{i},r} K_t^r zeta_t^r.

    ``gains[r]`` is the float array of K_t^r, shape (T, |r|m, |r|n); a
    stationary policy drops the stage axis.  Nested sequences of those
    shapes convert.  The node values X_t^r stay inside the solvers.
    """

    graph: InfoGraph
    horizon: int | None           # None for the stationary policy
    gains: dict

    def __post_init__(self):
        object.__setattr__(self, "gains", {
            r: np.asarray(v, dtype=float) for r, v in self.gains.items()})

    def schedule(self, node, T):
        """Node's gains K_t^r as a (T, |r|m, |r|n) array; a finite schedule
        runs only at its own horizon, a stationary gain at every stage."""
        return self.staged(self.gains[node], T)

    def staged(self, g, T):
        """``schedule`` of an array g shaped like this policy's gains."""
        if self.horizon is None:
            return np.broadcast_to(g, (T, *g.shape))
        if T != self.horizon:
            raise ValueError(f"horizon {T} differs from the policy's horizon "
                             f"{self.horizon}")
        return g

    def as_dict(self):
        return {
            "kind": "delayed",
            "horizon": self.horizon,
            "nodes": [list(s) for s in self.graph.nodes],
            "edges": [[list(r), list(s)] for r, s in self.graph.edges],
            "injection": {str(i + 1): list(s)
                          for i, s in self.graph.injection_map.items()},
            "gains": {node_key(r): K.tolist() for r, K in self.gains.items()},
        }


def node_key(node):
    """A node's key in reports: its agents numbered from 1, as in "1,2"."""
    return ",".join(str(i + 1) for i in node)


def _node_blocks(d: _Stacked, r, s):
    """Node r's blocks (A^{sr}, B^{sr}, Q^{rr}, R^{rr}, S^{rr}) against its
    successor s."""
    return d.A_sr(s, r), d.B_sr(s, r), d.Q_rr(r), d.R_rr(r), d.S_rr(r)


def _node_step(r, blocks, X_next):
    """One backward Riccati step at node r with ``_node_blocks`` blocks
    against its successor's value X_next."""
    A, B, Q, R, S = blocks
    G = R + B.T @ X_next @ B
    w = np.linalg.eigvalsh(sym(G))
    if w[0] <= 1e-12 * abs(w[-1]):
        raise NodeRecursionError(
            f"inner matrix not positive definite at node {set(i + 1 for i in r)}"
        )
    K = -np.linalg.solve(sym(G), S.T + B.T @ X_next @ A)
    X = Q + A.T @ X_next @ A - K.T @ G @ K
    return sym(X), K


def solve_delayed_finite(spec: TeamSpec, T: int | None = None):
    """Finite-horizon node gains and the trace form of the optimal cost."""
    T = spec.horizon if T is None else T
    graph = check_preconditions(spec)
    gains, values = _node_recursion(spec, graph, T)
    policy = GraphPolicy(graph=graph, horizon=T, gains=gains)
    return policy, _trace_cost(spec, graph, values, T)


def _node_recursion(spec: TeamSpec, graph: InfoGraph, T: int):
    """The backward node recursion from X_T^r = 0: (gains, values), each
    node's K_t^r (T, |r|m, |r|n) and X_t^r (T + 1, |r|n, |r|n)."""
    d = stacked_data(spec)
    values = {r: np.zeros((T + 1, len(r) * d.n, len(r) * d.n))
              for r in graph.nodes}          # X_T^r = 0
    gains = {r: np.empty((T, len(r) * d.m, len(r) * d.n)) for r in graph.nodes}
    blocks = {r: _node_blocks(d, r, graph.successor_map[r])
              for r in graph.nodes}
    for t in range(T - 1, -1, -1):
        for r in graph.nodes:
            s = graph.successor_map[r]
            try:
                values[r][t], gains[r][t] = _node_step(r, blocks[r],
                                                       values[s][t + 1])
            except NodeRecursionError as exc:
                raise NodeRecursionError(f"{exc} at stage {t}") from exc
    return gains, values


def _node_block(node, i, M, blk):
    """Agent i's diagonal block (size blk) of node matrices M (..., d, d)."""
    pos = sorted(node).index(i)
    b = slice(pos * blk, (pos + 1) * blk)
    return M[..., b, b]


def _trace_cost(spec, graph, values, T):
    Sd, W = sym(spec.noise.init_diag), sym(spec.noise.sigma_w)
    total = 0.0
    for i in range(spec.n_dm):
        s = graph.injection_map[i]
        X = _node_block(s, i, values[s], spec.n)
        total += np.trace(X[0] @ Sd) + np.einsum("tij,ji->", X[1:], W)
    return float(total) / T


# ---------------------------------------------------------------------------
# estimator propagation and closed-loop evaluation


def node_plan(graph: InfoGraph, policy: GraphPolicy, d: _Stacked, T: int):
    """The estimator recursion on one (size, R) buffer of every zeta, largest
    node first: (steps, inject, size).  ``steps`` maps node r, successor s,
    to (G, rows, cols, succ): G (T, |r|m + |s|n, |r|n) stacks K_t^r over
    A^{sr} + B^{sr} K_t^r, rows are r's agents' control rows, cols and succ
    the buffer rows of zeta^r and zeta^s; ``inject`` holds each agent's rows
    in its injection node, where x_0^i and w_t^i enter."""
    order = graph.nodes[::-1]
    start = d.n * np.cumsum([0] + [len(r) for r in order])
    cols = {r: slice(a, b) for r, a, b in zip(order, start, start[1:])}
    steps = {}
    for r in order:
        s, K = graph.successor_map[r], policy.gains[r]
        G = np.concatenate([K, d.A_sr(s, r) + d.B_sr(s, r) @ K], axis=-2)
        rows = (d.m * np.array(r)[:, None] + np.arange(d.m)).ravel()
        steps[r] = policy.staged(G, T), rows, cols[r], cols[s]
    inject = np.concatenate([cols[s].start + s.index(i) * d.n + np.arange(d.n)
                             for i, s in sorted(graph.injection_map.items())])
    return steps, inject, start[-1]


def step_nodes(steps, z, u, t, last=False):
    """Stage t of ``node_plan``'s steps in place: reads zeta_t from z, writes
    u_t into u and, unless ``last``, zeta_{t+1} less the noise into z.  A
    successor is larger than its node unless the node is a self-loop, so
    largest first, each zeta_t is read before a smaller node adds to it."""
    u[:] = 0.0
    for G, rows, cols, succ in steps.values():
        k = len(rows)
        y = (G[t, :k] if last else G[t]) @ z[cols]
        u[rows] += y[:k]
        if not last:
            z[cols] = 0.0
            z[succ] += y[k:]


def simulate_estimator(graph: InfoGraph, policy: GraphPolicy, spec: TeamSpec,
                       x0, w):
    """Closed-loop rollout of the estimator states and controls.

    x0: (batch, N*n) initial stacked states; w: (batch, T, N*n) noises.
    Returns (x, zeta, u): x is (batch, T+1, N*n), u is (batch, T, N*m), and
    zeta maps each node to its (batch, T+1, |r|*n) trajectory.  Steps
    ``step_nodes`` with the batch axis last, and x on its own; the results
    are transposed views of that storage.
    """
    d = stacked_data(spec)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    w = np.asarray(w, dtype=float).reshape(-1, *np.shape(w)[-2:])
    batch, T = w.shape[:2]
    steps, inject, size = node_plan(graph, policy, d, T)
    x, u = np.empty((T + 1, d.N * d.n, batch)), np.empty((T, d.N * d.m, batch))
    z = np.zeros((T + 1, size, batch))
    x[0] = z[0, inject] = x0.T
    for t in range(T):
        z[t + 1] = z[t]
        step_nodes(steps, z[t + 1], u[t], t)
        x[t + 1] = d.A @ x[t] + d.B @ u[t] + w[:, t].T
        z[t + 1, inject] += w[:, t].T
    x, z, u = (a.transpose(2, 0, 1) for a in (x, z, u))
    return x, {r: z[..., steps[r][2]] for r in graph.nodes}, u


def _check_on_graph(d: _Stacked, graph: InfoGraph):
    """Raises ValueError unless A and B move each node's agents only into
    its successor's, as x = sum_r I^{.,r} zeta^r needs."""
    moves = (np.any(d.A.reshape(d.N, d.n, d.N, d.n), axis=(1, 3))
             | np.any(d.B.reshape(d.N, d.n, d.N, d.m), axis=(1, 3)))
    if any(np.any(np.delete(moves[:, list(r)], s, axis=0))
           for r, s in graph.edges):
        raise ValueError("the dynamics move some node's agents outside its "
                         "successor, so zeta does not carry the plant state")


def _node_moments(spec: TeamSpec, policy: GraphPolicy, T: int,
                  want_grad=False):
    """Exact cost of the assembled controller node by node, and on request
    the person-by-person terms of every node's gains: (J, Z, terms).

    Each x_0^i and w_t^i sits in one node per stage, so with independent
    initial states different nodes' zeta are uncorrelated (Lamperski &
    Lessard, Automatica 2015).  Node r, with ``_node_blocks`` against
    s = succ(r), has F_t^r = A^{sr} + B^{sr} K_t^r, stage weight
    C_t^r = Q^{rr} + S^{rr} K_t^r + (S^{rr} K_t^r)^T + K_t^{rT} R^{rr} K_t^r
    and moments Z^r (T, |r|n, |r|n), Sd and then W in each agent's slot of
    its injection node:

        Z_{t+1}^s = W^s + sum_{r: succ(r) = s} F_t^r Z_t^r F_t^{rT},
        J = (1/T) sum_{t<T} sum_r tr(C_t^r Z_t^r).

    ``want_grad`` adds each node's (g, h), each (T, |r|m, |r|n), as
    ``moments.gain_sensitivity`` forms them, from the adjoint
    P_t^r = C_t^r + F_t^{rT} P_{t+1}^s F_t^r, P_T = 0.  Correlated initial
    states, or dynamics that move a node's agents outside its successor,
    raise ValueError.
    """
    _check_independent_initials(spec)
    graph = policy.graph
    d = stacked_data(spec)
    _check_on_graph(d, graph)
    Z = {r: np.zeros((T, len(r) * d.n, len(r) * d.n)) for r in graph.nodes}
    for i, s in graph.injection_map.items():
        Zi = _node_block(s, i, Z[s], d.n)
        Zi[0], Zi[1:] = sym(spec.noise.init_diag), sym(spec.noise.sigma_w)
    blocks = {r: _node_blocks(d, r, s) for r, s in graph.edges}
    K = {r: policy.schedule(r, T) for r in graph.nodes}
    F = {r: A + B @ K[r] for r, (A, B, *_) in blocks.items()}
    for t in range(T - 1):
        for r, s in graph.edges:
            Z[s][t + 1] += F[r][t] @ Z[r][t] @ F[r][t].T
    C, cost = {}, 0.0
    for r, (_, _, Q, R, S) in blocks.items():
        SK = S @ K[r]
        C[r] = Q + SK + SK.swapaxes(1, 2) + K[r].swapaxes(1, 2) @ R @ K[r]
        cost += np.einsum("tij,tji->", C[r], Z[r])
    if not want_grad:
        return float(cost) / T, Z, None
    P = {r: np.zeros((T + 1, *z.shape[1:])) for r, z in Z.items()}
    for t in range(T - 1, -1, -1):
        for r, s in graph.edges:
            P[r][t] = C[r][t] + F[r][t].T @ P[s][t + 1] @ F[r][t]
    terms = {}
    for r, s in graph.edges:
        _, B, _, R, S = blocks[r]
        BP = B.T @ P[s][1:]
        g = (2.0 / T) * (S.T + R @ K[r] + BP @ F[r]) @ Z[r]
        h = (np.diag(R) + np.einsum("tij,ji->ti", BP, B)) / T
        terms[r] = g, np.einsum("ti,tj->tij", h, np.diagonal(Z[r], 0, 1, 2))
    return float(cost) / T, Z, terms


def closed_loop_cost(spec: TeamSpec, policy: GraphPolicy, T: int | None = None):
    """Exact expected cost of the assembled controller from the per-node
    moments of zeta (``_node_moments``), independent of the trace form."""
    T = policy.horizon if T is None else T
    if T is None:
        raise ValueError("finite horizon required")
    return _node_moments(spec, policy, T)[0]


# ---------------------------------------------------------------------------
# infinite horizon


def _rank_condition(d: _Stacked, node, grid=720):
    """The grid points theta = 2 pi k / grid at which [A - e^{i theta} I, B;
    CD] loses full column rank, with CD^T CD = [Q S; S^T R] the node's cost
    block (the factor of ``psd_factor``), in ascending order.

    |M v| >= |CD v| for every v, so sigma_min(M) >= sigma_min(CD) at every
    theta, while sigma_max(M) <= |[A B]|_2 + 1 + sigma_max(CD).  When
    sigma_min(CD) beats ``numerical_rank``'s threshold at that bound by a
    factor 2, every grid point has full rank and no SVD runs; a positive
    definite cost block (Q > 0, R > 0, S = 0) always does.  Otherwise A, B
    and CD are real, so M at 2 pi - theta is the conjugate of M at theta:
    one stacked SVD decides the points in [0, pi] and each failing k also
    fails at grid - k.
    """
    A, B, Q, R, S = _node_blocks(d, node, node)
    nn, mm = A.shape[0], B.shape[1]
    w, V = np.linalg.eigh(sym(np.block([[Q, S], [S.T, R]])))
    sv = np.sqrt(np.clip(w, 0.0, None))      # singular values of CD
    s_max = np.linalg.norm(np.hstack([A, B]), 2) + 1.0 + sv[-1]
    if sv[0] > 2.0 * (2 * nn + mm) * 1e-12 * s_max:
        return []
    theta = 2.0 * np.pi * np.arange(grid) / grid
    half = grid // 2 + 1
    M = np.zeros((half, 2 * nn + mm, nn + mm), dtype=complex)
    M[:, :nn, :nn] = A - np.exp(1j * theta[:half])[:, None, None] * np.eye(nn)
    M[:, :nn, nn:] = B
    M[:, nn:] = (V * sv).T
    k = np.flatnonzero(numerical_rank(M) < nn + mm)
    return theta[np.union1d(k, (grid - k) % grid)].tolist()


def solve_delayed_infinite(spec: TeamSpec):
    """Stationary node gains for the average-cost problem, the spectral
    radius of their closed loop, and their average cost: (policy, radius,
    cost).  The cost is the steady noise trace sum_i tr(X_ii W), X the
    stationary value of agent i's injection node.

    Self-loop nodes solve an algebraic Riccati equation on their partitioned
    data (the cross term S^{ss} absorbed by the change of variables
    u -> u - R^{-1} S^T x); the remaining nodes take one backward step from
    their successor's limit, walking chains from the self-loops inward.  The
    closed-loop estimator dynamics must be stable.
    """
    graph = check_preconditions(spec)
    d = stacked_data(spec)

    values, gains = {}, {}
    for s in graph.self_loop_nodes():
        A, B, Q, R, S = _node_blocks(d, s, s)
        label = set(i + 1 for i in s)
        bad = _rank_condition(d, s)
        if bad:
            raise RankConditionError(
                f"rank condition failed at node {label}, theta = {bad[0]:.4f}"
                + (f" (+{len(bad) - 1} more grid points)" if len(bad) > 1 else "")
            )
        Rinv_St = np.linalg.solve(sym(R), S.T)
        Abar = A - B @ Rinv_St
        Qbar = sym(Q - S @ Rinv_St)
        try:
            sol = dare_solve(Abar, B, Qbar, R)
        except RiccatiError as exc:
            exc.args = (f"{exc} at self-loop node {label}",)
            raise
        values[s] = sol.P
        gains[s] = sol.K - Rinv_St

    # Remaining nodes: one Riccati step from the successor's limit, nearest
    # the fixed point first.  Every chain ends in a self-loop (successor(s)
    # contains s), so each successor is resolved before its predecessors.
    for r in sorted(graph.nodes, key=lambda r: len(graph.chain(r))):
        if r not in values:
            s = graph.successor_map[r]
            values[r], gains[r] = _node_step(r, _node_blocks(d, r, s),
                                              values[s])

    policy = GraphPolicy(graph=graph, horizon=None,
                         gains={r: gains[r] for r in graph.nodes})
    radius = closed_loop_radius(spec, policy)
    if not radius < 1.0:
        raise RiccatiError(
            f"closed-loop estimator dynamics unstable (spectral radius {radius:.6g})")
    W = sym(spec.noise.sigma_w)
    cost = 0.0
    for i in range(spec.n_dm):
        s = graph.injection_map[i]
        cost += float(np.trace(_node_block(s, i, values[s], d.n) @ W))
    return policy, radius, cost


def closed_loop_radius(spec: TeamSpec, policy: GraphPolicy) -> float:
    """Spectral radius of the stationary estimator dynamics on all zeta:
    each zeta^r moves to a larger successor unless r is a self-loop, so with
    the nodes ordered by size the map is block triangular, its diagonal
    A^{ss} + B^{ss} K^s at each self-loop node s and 0 elsewhere."""
    d = stacked_data(spec)
    _check_on_graph(d, policy.graph)
    return max(spectral_radius(d.A_sr(s, s)
                               + d.B_sr(s, s) @ policy.schedule(s, 1)[0])
               for s in policy.graph.self_loop_nodes())

