"""Delayed-sharing synthesis: centralized oracle, estimator identities,
cost agreement, and the stationary policy."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from teamlqg.delayed import (
    GraphPolicy,
    NodeRecursionError,
    _node_recursion,
    _rank_condition,
    closed_loop_cost,
    check_preconditions,
    closed_loop_radius,
    simulate_estimator,
    solve_delayed_finite,
    solve_delayed_infinite,
    stacked_data,
)
from teamlqg.linalg import is_psd, numerical_rank, psd_factor
from teamlqg.sim import (
    GraphPolicySet,
    TreePolicySet,
    exact_cost_general,
    pbp_check,
    simulate,
)
from teamlqg.tree import n_dm, predicted_cost, solve_tree
from teamlqg.model import (
    Blocked,
    CostSpec,
    Delayed,
    Homogeneous,
    NoiseSpec,
    TeamSpec,
    Tree,
    stacked_dynamics,
    validate,
)

from primitive_oracle import optimal_cost, shortest_delays
from conftest import (
    LINKED_DELAYS,
    coupled_delayed_spec_2dm,
    linked_delayed_spec,
    rand_pd,
    rand_psd,
    single_dm_delayed_spec,
)

INF = math.inf
PHI = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_self_loop_spec(A, B):
    """One agent whose only node is a self-loop: its DARE is scalar."""
    return TeamSpec(
        n_dm=1, horizon=2,
        dynamics=Homogeneous(A=[[A]], B=[[B]]),
        cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
        noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                        init_offdiag=[[0.0]]),
        info=Delayed(delays=((0.0,),)),
    )


def dp_oracle(A, B, Q, R, S, T):
    """Textbook finite-horizon LQR with cross term on the stages t < T,
    with no terminal cost (X_T = 0)."""
    Ks, Xs = [None] * T, [None] * (T + 1)
    X = np.zeros_like(A)
    Xs[T] = X
    for t in range(T - 1, -1, -1):
        G = R + B.T @ X @ B
        K = -np.linalg.solve(G, S.T + B.T @ X @ A)
        X = Q + A.T @ X @ A + (S + A.T @ X @ B) @ K
        X = 0.5 * (X + X.T)
        Ks[t], Xs[t] = K, X
    return Ks, Xs


def node_values(spec, T):
    """Every node's value matrices X_t^r, (T + 1, |r|n, |r|n), from the
    node recursion that ``solve_delayed_finite`` runs."""
    return _node_recursion(spec, check_preconditions(spec), T)[1]


def values_psd(values):
    """Whether every node's value matrix X_t^r is positive semidefinite."""
    return all(is_psd(X) for v in values.values()
               for X in v.reshape(-1, *v.shape[-2:]))


def decoupled_2dm_spec(T=3):
    return TeamSpec(
        n_dm=2, horizon=T,
        dynamics=Blocked(
            A_blocks=((np.array([[0.8]]), np.array([[0.0]])),
                      (np.array([[0.0]]), np.array([[0.6]]))),
            B_blocks=((np.array([[1.0]]), np.array([[0.0]])),
                      (np.array([[0.0]]), np.array([[1.0]]))),
        ),
        cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
        noise=NoiseSpec(sigma_w=[[0.5]], init_diag=[[1.0]],
                        init_offdiag=[[0.0]]),
        info=Delayed(delays=((0.0, INF), (INF, 0.0))),
    )


class TestFiniteHorizon:
    def test_single_dm_matches_dp_oracle(self, rng):
        """20 random scalar and 2-state instances against a brute-force
        dynamic-programming recursion, gains and cost to 1e-10."""
        for trial in range(20):
            spec = single_dm_delayed_spec(rng, n=1 + trial % 2)
            T = spec.horizon
            pol, cost = solve_delayed_finite(spec, T)
            A, B = spec.dynamics.A, spec.dynamics.B
            S = spec.cost.S
            Ks, Xs = dp_oracle(A, B, spec.cost.Q, spec.cost.R, S, T)
            node = pol.graph.nodes[0]
            for t in range(T):
                assert np.abs(pol.gains[node][t] - Ks[t]).max() < 1e-10
            Sd = 0.5 * (spec.noise.init_diag + spec.noise.init_diag.T)
            W = 0.5 * (spec.noise.sigma_w + spec.noise.sigma_w.T)
            oracle = (np.trace(Xs[0] @ Sd)
                      + sum(np.trace(Xs[t + 1] @ W) for t in range(T))) / T
            assert abs(cost - oracle) < 1e-10 * (1 + abs(oracle))

    def test_decoupled_two_dm_equals_standalone_lqr(self):
        spec = decoupled_2dm_spec(T=4)
        pol, _ = solve_delayed_finite(spec, 4)
        for i, a in enumerate((0.8, 0.6)):
            Ks, _ = dp_oracle(np.array([[a]]), np.array([[1.0]]),
                              np.array([[1.0]]), np.array([[1.0]]),
                              np.zeros((1, 1)), 4)
            node = (i,)
            for t in range(4):
                assert np.abs(pol.gains[node][t] - Ks[t]).max() < 1e-12

    def test_trace_cost_equals_closed_loop_moments(self):
        spec = coupled_delayed_spec_2dm(T=4)
        pol, cost = solve_delayed_finite(spec, 4)
        assert abs(cost - closed_loop_cost(spec, pol)) < 1e-8 * (1 + abs(cost))

    def test_values_psd_and_terminal_condition(self):
        spec = coupled_delayed_spec_2dm(T=3)
        values = node_values(spec, 3)
        assert values_psd(values)
        for r in check_preconditions(spec).nodes:
            XT = values[r][3]
            assert XT.shape == (len(r), len(r))
            assert np.allclose(XT, 0.0)  # nothing is charged after t < T

    def test_diagonal_constant_value_array(self):
        """X_{t+1}^{r,(T+1)} equals X_t^{r,(T)} for every node."""
        spec = coupled_delayed_spec_2dm(T=5)
        v5, v6 = node_values(spec, 5), node_values(spec, 6)
        for r in v5:
            for t in range(6):
                assert np.abs(v6[r][t + 1] - v5[r][t]).max() < 1e-12

    @pytest.mark.parametrize("r_tilde", [2.0, 1.01])
    def test_indefinite_inner_matrix_names_node_and_stage(self, r_tilde):
        """R~ > R makes the joint node's R^{rr} indefinite, so the last
        stage's inner matrix is: the error names the node and the stage."""
        spec = coupled_delayed_spec_2dm(T=3)
        spec = replace(spec, cost=replace(spec.cost, R_tilde=[[r_tilde]]))
        with pytest.raises(NodeRecursionError,
                           match=r"at node \{1, 2\} at stage 2$"):
            solve_delayed_finite(spec, 3)

    def test_gain_equivariance_at_symmetric_nodes(self):
        """Exchangeable blocked spec: the singleton nodes' gains coincide."""
        Ablk = ((np.array([[0.8]]), np.array([[0.3]])),
                (np.array([[0.3]]), np.array([[0.8]])))
        Bblk = ((np.array([[1.0]]), np.array([[0.2]])),
                (np.array([[0.2]]), np.array([[1.0]])))
        spec = TeamSpec(
            n_dm=2, horizon=4,
            dynamics=Blocked(A_blocks=Ablk, B_blocks=Bblk),
            cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
            noise=NoiseSpec(sigma_w=[[0.5]], init_diag=[[1.0]],
                            init_offdiag=[[0.0]]),
            info=Delayed(delays=((0.0, 1.0), (1.0, 0.0))),
        )
        pol, _ = solve_delayed_finite(spec, 4)
        for t in range(4):
            assert np.allclose(pol.gains[(0,)][t], pol.gains[(1,)][t])
            # joint node invariant under swapping the two agents
            Kj = pol.gains[(0, 1)][t]
            Pswap = np.array([[0.0, 1.0], [1.0, 0.0]])
            assert np.allclose(Pswap @ Kj @ Pswap, Kj, atol=1e-12)


class TestEstimator:
    def test_zero_primitives_zero_everything(self):
        spec = coupled_delayed_spec_2dm(T=3)
        pol, _ = solve_delayed_finite(spec, 3)
        x0 = np.zeros((2, 2))
        w = np.zeros((2, 3, 2))
        x, zeta, u = simulate_estimator(pol.graph, pol, spec, x0, w)
        assert np.all(x == 0.0) and np.all(u == 0.0)
        assert all(np.all(z == 0.0) for z in zeta.values())

    def test_single_dm_estimator_is_state(self, rng):
        spec = single_dm_delayed_spec(rng, T=4, n=2)
        pol, _ = solve_delayed_finite(spec, 4)
        x0 = rng.normal(size=(5, 2))
        w = rng.normal(size=(5, 4, 2))
        x, zeta, _ = simulate_estimator(pol.graph, pol, spec, x0, w)
        assert np.abs(zeta[(0,)] - x).max() < 1e-12

    def test_decoupled_estimators_reproduce_own_states(self, rng):
        spec = decoupled_2dm_spec(T=3)
        pol, _ = solve_delayed_finite(spec, 3)
        x0 = rng.normal(size=(4, 2))
        w = rng.normal(size=(4, 3, 2))
        x, zeta, _ = simulate_estimator(pol.graph, pol, spec, x0, w)
        assert np.abs(zeta[(0,)] - x[:, :, 0:1]).max() < 1e-12
        assert np.abs(zeta[(1,)] - x[:, :, 1:2]).max() < 1e-12

    def test_estimator_states_sum_to_state(self, rng):
        """The zeta decomposition is exact: summing each agent's blocks over
        all nodes containing it recovers the plant state."""
        spec = coupled_delayed_spec_2dm(T=4)
        pol, _ = solve_delayed_finite(spec, 4)
        x0 = rng.normal(size=(3, 2))
        w = rng.normal(size=(3, 4, 2))
        x, zeta, _ = simulate_estimator(pol.graph, pol, spec, x0, w)
        recon = np.zeros_like(x)
        for r, z in zeta.items():
            for pos, i in enumerate(sorted(r)):
                recon[:, :, i] += z[:, :, pos]
        assert np.abs(recon - x).max() < 1e-10


class TestInfiniteHorizon:
    def test_single_dm_golden_ratio(self):
        spec = TeamSpec(
            n_dm=1, horizon=2,
            dynamics=Homogeneous(A=[[1.0]], B=[[1.0]]),
            cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
            noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                            init_offdiag=[[0.0]]),
            info=Delayed(delays=((0.0,),)),
        )
        pol, _, cost = solve_delayed_infinite(spec)
        assert abs(pol.gains[(0,)][0, 0] + 0.6180339887) < 1e-8
        assert cost == pytest.approx(PHI, abs=1e-8)      # X = PHI, W = 1

    def test_decoupled_two_independent_dares(self):
        from teamlqg.riccati import dare_solve

        spec = decoupled_2dm_spec()
        pol, _, cost = solve_delayed_infinite(spec)
        sols = [dare_solve([[a]], [[1.0]], [[1.0]], [[1.0]]) for a in (0.8, 0.6)]
        for i, sol in enumerate(sols):
            assert np.abs(pol.gains[(i,)] - sol.K).max() < 1e-8
        W = spec.noise.sigma_w
        assert cost == pytest.approx(sum(np.trace(sol.P @ W) for sol in sols),
                                     abs=1e-8)

    def test_finite_gains_converge_to_stationary(self):
        spec = coupled_delayed_spec_2dm()
        stat, _, _ = solve_delayed_infinite(spec)
        diffs = []
        for T in (32, 64, 128):
            polT, _ = solve_delayed_finite(spec, T)
            diffs.append(max(np.abs(polT.gains[r][0] - stat.gains[r]).max()
                             for r in stat.gains))
        assert diffs[-1] < 1e-8
        assert diffs[0] >= diffs[-1]

    def test_closed_loop_stable(self):
        """The solver returns the radius of the loop it checked, the one
        ``closed_loop_radius`` computes."""
        spec = coupled_delayed_spec_2dm()
        pol, radius, _ = solve_delayed_infinite(spec)
        assert radius == closed_loop_radius(spec, pol) < 1.0

    def test_average_cost_is_horizon_limit(self):
        """(1/T)-normalized finite optimal costs approach the stationary
        noise-trace value as T doubles."""
        spec = coupled_delayed_spec_2dm()
        _, _, target = solve_delayed_infinite(spec)
        gaps = []
        for T in (16, 64, 256):
            _, cost = solve_delayed_finite(spec, T)
            gaps.append(abs(cost - target))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-2

    def test_rank_condition_failure_raises(self):
        """Zero cost on an undetectable unstable mode trips the unit-circle
        rank condition."""
        from teamlqg.riccati import RiccatiError

        spec = TeamSpec(
            n_dm=1, horizon=2,
            dynamics=Homogeneous(A=[[1.0]], B=[[1.0]]),
            cost=CostSpec(Q=[[0.0]], R=[[1.0]]),
            noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                            init_offdiag=[[0.0]]),
            info=Delayed(delays=((0.0,),)),
        )
        with pytest.raises(RiccatiError):
            solve_delayed_infinite(spec)

    def test_unstabilizable_node_is_named(self):
        from teamlqg.riccati import RiccatiError

        with pytest.raises(RiccatiError,
                           match="not stabilizable at self-loop node {1}"):
            solve_delayed_infinite(scalar_self_loop_spec(A=2.0, B=0.0))

    def test_node_convergence_error_keeps_type_and_names_node(self,
                                                              monkeypatch):
        from teamlqg import riccati

        monkeypatch.setattr(riccati, "DOUBLING_CAP", 1)
        with pytest.raises(riccati.ConvergenceError,
                           match="at self-loop node {1}") as info:
            solve_delayed_infinite(scalar_self_loop_spec(A=1.0, B=1.0))
        assert info.value.residual > 1e-3

    def test_sparsity_violation_rejected(self):
        spec = TeamSpec(
            n_dm=2, horizon=2,
            dynamics=Blocked(
                A_blocks=((np.array([[0.5]]), np.array([[0.3]])),
                          (np.array([[0.0]]), np.array([[0.5]]))),
                B_blocks=((np.array([[1.0]]), np.array([[0.0]])),
                          (np.array([[0.0]]), np.array([[1.0]]))),
            ),
            cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
            noise=NoiseSpec(sigma_w=[[0.5]], init_diag=[[1.0]],
                            init_offdiag=[[0.0]]),
            info=Delayed(delays=((0.0, INF), (INF, 0.0))),
        )
        with pytest.raises(ValueError, match="sparsity"):
            solve_delayed_finite(spec, 2)

    def test_correlated_initial_states_rejected(self):
        """The node recursion and its costs assume independent initial
        states, so a pair-delay spec with init_offdiag != 0, which fails
        validate, fails both library solvers too; with init_offdiag = 0
        the same spec solves."""
        spec = coupled_delayed_spec_2dm(T=3)
        solve_delayed_finite(spec, 3)
        solve_delayed_infinite(spec)
        spec = replace(spec, noise=replace(spec.noise,
                                           init_offdiag=[[0.5]]))
        assert not validate(spec).ok
        with pytest.raises(ValueError, match="init_offdiag"):
            solve_delayed_finite(spec, 3)
        with pytest.raises(ValueError, match="init_offdiag"):
            solve_delayed_infinite(spec)

    def test_correlated_initial_states_not_priced(self):
        """The exact loop gives each agent's initial state its own block, so
        at init_offdiag = 0.5 it would price this policy at 2.0438, where
        5e4 rollouts give 2.070 +/- 0.005, and pbp_check would read 0.0.
        Every exact evaluation of a graph policy raises instead."""
        spec = coupled_delayed_spec_2dm(T=3)
        pol, _ = solve_delayed_finite(spec, 3)
        spec = replace(spec, noise=replace(spec.noise,
                                           init_offdiag=[[0.5]]))
        pset = GraphPolicySet(policy=pol)
        for evaluate in (lambda: closed_loop_cost(spec, pol),
                         lambda: exact_cost_general(spec, pset, 3),
                         lambda: pbp_check(spec, pset, 3)):
            with pytest.raises(ValueError, match="init_offdiag"):
                evaluate()


def reference_average_cost(spec, policy):
    """Average cost of a stationary graph policy by policy evaluation, on
    the spec's full stacked matrices and no code of the solver.  Node r,
    with successor s, has F^r = A^{sr} + B^{sr} K^r and stage weight
    C^r = Q^{rr} + S^{rr} K^r + (S^{rr} K^r)^T + K^{rT} R^{rr} K^r; its
    cost-to-go P^r solves P = C^r + F^{rT} P F^r at a self-loop node and is
    C^r + F^{rT} P^s F^r at every other, and J = sum_i tr(P_ii W) with
    P_ii agent i's block of its injection node's P."""
    N, n, m = spec.n_dm, spec.n, spec.m
    if isinstance(spec.dynamics, Blocked):
        A, B = (np.block([list(row) for row in grid]) for grid in
                (spec.dynamics.A_blocks, spec.dynamics.B_blocks))
    else:
        A, B = np.kron(np.eye(N), spec.dynamics.A), np.kron(np.eye(N),
                                                            spec.dynamics.B)
    off = np.ones((N, N)) - np.eye(N)
    c = spec.cost
    Q = np.kron(np.eye(N), c.Q) + np.kron(off, c.Q_tilde)
    R = np.kron(np.eye(N), c.R) + np.kron(off, c.R_tilde)
    S = np.kron(np.eye(N), c.S)
    rows = lambda node, k: [i * k + a for i in node for a in range(k)]
    graph, P = policy.graph, {}
    while len(P) < len(graph.nodes):
        for r in graph.nodes:
            s = graph.successor_map[r]
            if r in P or (s != r and s not in P):
                continue
            x, u, y, K = rows(r, n), rows(r, m), rows(s, n), policy.gains[r]
            F = A[np.ix_(y, x)] + B[np.ix_(y, u)] @ K
            SK = S[np.ix_(x, u)] @ K
            C = Q[np.ix_(x, x)] + SK + SK.T + K.T @ R[np.ix_(u, u)] @ K
            P[r] = (solve_discrete_lyapunov(F.T, C) if s == r
                    else C + F.T @ P[s] @ F)
    total = 0.0
    for i, s in graph.injection_map.items():
        b = rows([s.index(i)], n)
        total += np.trace(P[s][np.ix_(b, b)] @ spec.noise.sigma_w)
    return total


# CI's delayed.json
CI_DELAYED = TeamSpec(
    n_dm=2, horizon=3,
    dynamics=Homogeneous(A=[[0.8]], B=[[1.0]]),
    cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
    noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]], init_offdiag=[[0.0]]),
    info=Delayed(delays=((0.0, 1.0), (1.0, 0.0))),
)


class TestStationaryCostReference:
    """The cost ``solve_delayed_infinite`` returns is the average cost of
    the policy it returns, as policy evaluation prices it."""

    @staticmethod
    def assert_matches(spec):
        pol, _, cost = solve_delayed_infinite(spec)
        ref = reference_average_cost(spec, pol)
        assert abs(cost - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("spec", [CI_DELAYED, coupled_delayed_spec_2dm()],
                             ids=["ci-delayed", "coupled-2dm"])
    def test_small_specs(self, spec):
        self.assert_matches(spec)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("graph", ["full3", "chain4", "ring4"])
    def test_linked_graphs(self, graph, n, m, seed):
        """Bench-shaped linked graphs; odd seeds add R~, Q~ and S."""
        rng = np.random.default_rng(seed)
        spec = linked_delayed_spec(rng, LINKED_DELAYS[graph], n, m, 3)
        if seed % 2:
            W = rand_pd(rng, n + m)    # [[Q, S], [S^T, R]]: a valid cost
            spec = replace(spec, cost=CostSpec(
                Q=W[:n, :n], R=W[n:, n:], S=W[:n, n:],
                Q_tilde=rand_psd(rng, n, scale=0.1),
                R_tilde=rand_psd(rng, m, scale=0.1)))
        self.assert_matches(spec)


# ---------------------------------------------------------------------------
# unit-circle rank grid


def rank_condition_reference(d, node, grid=720):
    """The unit-circle rank test one theta at a time over the whole grid
    (the sweep that ``_rank_condition`` certifies away or halves): one SVD
    of [A - e^{i theta} I, B; C, D] per grid point."""
    A, B = d.A_sr(node, node), d.B_sr(node, node)
    Q, R, S = d.Q_rr(node), d.R_rr(node), d.S_rr(node)
    nn, mm = A.shape[0], B.shape[1]
    CD = psd_factor(np.block([[Q, S], [S.T, R]])).T
    marginal = []
    for k in range(grid):
        theta = 2.0 * np.pi * k / grid
        top = np.hstack([A - np.exp(1j * theta) * np.eye(nn), B])
        M = np.vstack([top, CD.astype(complex)])
        if numerical_rank(M) < nn + mm:
            marginal.append(theta)
    return marginal


GRAPH_DELAYS = {
    "full3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "chain4": [[0, 1, INF, INF], [1, 0, 1, INF], [INF, 1, 0, 1],
               [INF, INF, 1, 0]],
    "ring4": [[0, 1, INF, 1], [1, 0, 1, INF], [INF, 1, 0, 1],
              [1, INF, 1, 0]],
}


def graph_spec(rng, delays):
    """Scalar agents whose cross blocks follow the delay-1 links."""
    N = len(delays)
    A = [[np.array([[rng.normal() * (1.0 if i == j else 0.3)]])
          if delays[i][j] != INF else np.zeros((1, 1)) for j in range(N)]
         for i in range(N)]
    B = [[np.array([[rng.uniform(0.5, 1.5) if i == j else 0.2 * rng.normal()]])
          if delays[i][j] != INF else np.zeros((1, 1)) for j in range(N)]
         for i in range(N)]
    return TeamSpec(
        n_dm=N, horizon=2,
        dynamics=Blocked(A_blocks=tuple(map(tuple, A)),
                         B_blocks=tuple(map(tuple, B))),
        cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
        noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                        init_offdiag=[[0.0]]),
        info=Delayed(delays=tuple(tuple(float(v) for v in row)
                                  for row in delays)),
    )


def marginal_spec(A):
    """One agent with zero state cost, so every unit-circle eigenvalue of A
    is an unobserved marginal mode."""
    n = len(A)
    return TeamSpec(
        n_dm=1, horizon=2,
        dynamics=Homogeneous(A=A, B=np.ones((n, 1))),
        cost=CostSpec(Q=np.zeros((n, n)), R=[[1.0]]),
        noise=NoiseSpec(sigma_w=np.eye(n), init_diag=np.eye(n),
                        init_offdiag=np.zeros((n, n))),
        info=Delayed(delays=((0.0,),)),
    )


class TestRankGrid:
    def _both(self, spec):
        d = stacked_data(spec)
        nodes = check_preconditions(spec).self_loop_nodes()
        return ([_rank_condition(d, s) for s in nodes],
                [rank_condition_reference(d, s) for s in nodes])

    def test_marginal_modes_on_grid_points(self):
        """An unobserved eigenvalue at z = 1 (grid point 0) and a rotation by
        pi/4 (grid points 90 and 630): the same theta lists, bit for bit."""
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        for A, expect in (([[1.0]], [0.0]),
                          ([[c, -s], [s, c]], [np.pi / 4, 7 * np.pi / 4])):
            batched, reference = self._both(marginal_spec(A))
            assert batched == reference
            assert np.allclose(batched[0], expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("graph", sorted(GRAPH_DELAYS))
    def test_graph_shapes_match_pointwise_reference(self, rng, graph):
        batched, reference = self._both(graph_spec(rng, GRAPH_DELAYS[graph]))
        assert batched == reference
        assert len(batched) >= 1

    def test_positive_definite_cost_certified_without_a_sweep(
            self, rng, monkeypatch):
        """A positive definite cost block [Q S; S^T R] keeps M(theta) at
        full rank everywhere: no SVD runs and the list is empty, as the
        pointwise reference finds, even on marginal dynamics."""
        nodes = []
        for trial in range(12):
            n, m = 1 + trial % 3, 1 + trial % 2
            W = rand_pd(rng, n + m)
            A = (np.eye(n) if trial % 4 == 0
                 else rng.normal(size=(n, n)) * 10.0 ** (trial % 3))
            spec = replace(marginal_spec(A), dynamics=Homogeneous(
                A=A, B=rng.normal(size=(n, m))), cost=CostSpec(
                Q=W[:n, :n], R=W[n:, n:], S=W[:n, n:]))
            nodes.append((stacked_data(spec), (0,)))
        reference = [rank_condition_reference(d, s) for d, s in nodes]
        assert reference == [[]] * len(nodes)

        def no_sweep(M):
            raise AssertionError("positive definite cost block swept")

        monkeypatch.setattr("teamlqg.delayed.numerical_rank", no_sweep)
        assert [_rank_condition(d, s) for d, s in nodes] == reference

    def test_rotated_singular_cost_block(self):
        """A singular cost block whose eigenvectors are not the axes: the
        state cost Q = w w^T, w = R_o e_2, leaves the mode at z = 1 along
        R_o e_1 unobserved, which both the batched test and the reference
        find at theta = 0 and nowhere else."""
        c, s = np.cos(0.6), np.sin(0.6)
        Ro = np.array([[c, -s], [s, c]])
        w = Ro[:, 1:]
        spec = replace(marginal_spec(Ro @ np.diag([1.0, 0.5]) @ Ro.T),
                       cost=CostSpec(Q=w @ w.T, R=[[1.0]]))
        assert self._both(spec) == ([[0.0]], [[0.0]])

    @pytest.mark.parametrize("grid", [720, 9])
    def test_mirrored_marginal_pairs_match_reference(self, grid):
        """Singular cost blocks sweep half the grid and mirror k to
        grid - k: rotations at grid points k and grid - k, the self-mirrored
        points theta = 0 and theta = pi, and a rotation between grid points
        give the reference's theta lists bit for bit."""
        def rotation(k):
            c, s = np.cos(2 * np.pi * k / grid), np.sin(2 * np.pi * k / grid)
            return np.array([[c, -s], [s, c]])

        def block(*blocks):
            n = sum(len(b) for b in blocks)
            A, i = np.zeros((n, n)), 0
            for b in blocks:
                A[i:i + len(b), i:i + len(b)] = b
                i += len(b)
            return A

        odd = [[-0.5]] if grid % 2 else [[-1.0]]
        cases = [block(rotation(1)), block(rotation(grid // 3), [[1.0]]),
                 block([[-1.0]]), block(rotation(2), odd),
                 block(rotation(0.5)), block([[0.3]], rotation(grid // 2 - 1))]
        found = []
        for A in cases:
            d = stacked_data(marginal_spec(A))
            got = _rank_condition(d, (0,), grid)
            assert got == rank_condition_reference(d, (0,), grid)
            k = np.rint(np.asarray(got) * grid / (2 * np.pi)).astype(int)
            assert sorted((grid - k) % grid) == list(k)
            found.append(len(got))
        assert found == ([2, 3, 1, 3, 0, 2] if grid % 2 == 0
                         else [2, 3, 0, 2, 0, 2])


# (N, n, m, T, whether R_tilde is set) of the cross-class identity specs
UNLINKED = [(2, 1, 1, 2, False), (2, 2, 1, 5, True), (3, 2, 2, 4, True),
            (4, 1, 2, 8, False), (3, 2, 1, 6, False), (4, 2, 2, 3, True),
            (2, 2, 2, 7, True), (3, 1, 1, 8, True)]


def unlinked_pair(seed, N, n, m, T, r_tilde):
    """One random problem as a Tree spec with independent initial states
    and as a Delayed spec with no links: block-diagonal dynamics and every
    off-diagonal delay infinite.  Both price the same team cost over the
    stages t < T, so their optimal gains and costs coincide; R_tilde's pair
    term has zero mean between independent agents.  A is scaled to
    spectral radius 0.9 so the Monte Carlo spread stays small."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, m))
    tree_spec = TeamSpec(
        n_dm=N, horizon=T, dynamics=Homogeneous(A=A, B=B),
        cost=CostSpec(Q=rand_psd(rng, n), R=rand_pd(rng, m),
                      R_tilde=rand_pd(rng, m, scale=0.3) if r_tilde else None),
        noise=NoiseSpec(sigma_w=rand_psd(rng, n, scale=0.5, ridge=0.05),
                        init_diag=rand_pd(rng, n),
                        init_offdiag=np.zeros((n, n))),
        info=Tree())
    diag = lambda M: [[M if i == j else np.zeros_like(M) for j in range(N)]
                      for i in range(N)]
    delayed_spec = replace(
        tree_spec, dynamics=Blocked(A_blocks=diag(A), B_blocks=diag(B)),
        info=Delayed(delays=[[0.0 if i == j else INF for j in range(N)]
                             for i in range(N)]))
    return tree_spec, delayed_spec


class TestTreeIdentity:
    """Tree information with Sigma = 0 and Delayed information with no links
    are one problem: two solvers and two exact pricers must agree on it."""

    @pytest.mark.parametrize("case", range(len(UNLINKED)))
    def test_node_gains_equal_tree_gains(self, case):
        tree_spec, delayed_spec = unlinked_pair(case, *UNLINKED[case])
        T = tree_spec.horizon
        tpol = solve_tree(tree_spec, T)
        dpol, _ = solve_delayed_finite(delayed_spec, T)
        assert not tpol.L.any()
        assert dpol.graph.nodes == tuple((i,) for i in range(tree_spec.n_dm))
        for gains in dpol.gains.values():
            np.testing.assert_allclose(gains, tpol.K, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", range(len(UNLINKED)))
    def test_costs_agree_across_classes(self, case):
        """The delayed trace cost, the delayed moment cost and the tree's
        predicted cost of the solved policies agree to 1e-12 relative, and
        so do the two classes' closed loops on one perturbed profile with
        a different gain schedule per agent."""
        tree_spec, delayed_spec = unlinked_pair(case, *UNLINKED[case])
        N, T = tree_spec.n_dm, tree_spec.horizon
        tpol = solve_tree(tree_spec, T)
        dpol, trace = solve_delayed_finite(delayed_spec, T)
        J = predicted_cost(tree_spec, tpol)
        for other in (trace, closed_loop_cost(delayed_spec, dpol)):
            assert abs(other - J) <= 1e-12 * abs(J)

        rng = np.random.default_rng(100 + case)
        K = tpol.K + 0.3 * rng.normal(size=(N, *tpol.K.shape))
        pset = TreePolicySet(mode=n_dm(N), K=K, L=np.zeros_like(K))
        graph = GraphPolicy(graph=dpol.graph, horizon=T,
                            gains={(i,): K[i] for i in range(N)})
        J_tree = exact_cost_general(tree_spec, pset, T)
        J_graph = closed_loop_cost(delayed_spec, graph)
        assert abs(J_graph - J_tree) <= 1e-12 * abs(J_tree)
        assert J_tree > J

    @pytest.mark.parametrize("case", range(len(UNLINKED)))
    def test_graph_rollouts_match_tree_cost(self, case):
        """4000 graph-class rollouts of the delayed policy lie within 4 SE
        of the tree's predicted cost."""
        tree_spec, delayed_spec = unlinked_pair(case, *UNLINKED[case])
        T = tree_spec.horizon
        J = predicted_cost(tree_spec, solve_tree(tree_spec, T))
        dpol, _ = solve_delayed_finite(delayed_spec, T)
        rep = simulate(delayed_spec, GraphPolicySet(policy=dpol), T, 4000,
                       seed=31 + case)
        assert abs(rep.mean_cost - J) <= 4.0 * rep.std_error, \
            (rep.mean_cost, J, rep.std_error)


ORACLE_DELAYS = {
    "zero-cycle": [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    "zero-cycle-one-way": [[0, 0, 1], [0, 0, INF], [INF, INF, 0]],
    "all-zero": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    **{name: [[INF if v is None else v for v in row]
              for row in LINKED_DELAYS[name]]
       for name in ("full3", "chain4", "ring4")},
}


def oracle_plant(rng, delays, T=4):
    """A scalar team whose dynamics couple agent j into agent i wherever
    E[i, j] <= 1, relayed links included, with Q~, R~ and S nonzero and
    identity primitive covariance, so ``primitive_oracle`` prices it."""
    near = shortest_delays(delays) <= 1.0
    N = len(near)
    A = np.where(near, rng.uniform(-0.4, 0.4, (N, N)), 0.0)
    A[np.diag_indices(N)] = rng.uniform(0.6, 1.1, N)
    B = np.where(near, rng.uniform(-0.3, 0.3, (N, N)), 0.0)
    B[np.diag_indices(N)] = rng.uniform(0.5, 1.5, N)
    grid = lambda M: [[M[i:i + 1, j:j + 1] for j in range(N)]
                      for i in range(N)]
    return TeamSpec(
        n_dm=N, horizon=T,
        dynamics=Blocked(A_blocks=grid(A), B_blocks=grid(B)),
        cost=CostSpec(Q=[[1.0]], R=[[1.0]], S=[[0.2]], Q_tilde=[[0.2]],
                      R_tilde=[[0.3]]),
        noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                        init_offdiag=[[0.0]]),
        info=Delayed(delays=delays))


def oracle_cost(spec):
    """``primitive_oracle.optimal_cost`` of a scalar ``oracle_plant``."""
    N, c = spec.n_dm, spec.cost
    off = np.ones((N, N)) - np.eye(N)
    A, B = stacked_dynamics(spec)
    return optimal_cost(A, B, c.Q[0, 0] * np.eye(N) + c.Q_tilde[0, 0] * off,
                        c.R[0, 0] * np.eye(N) + c.R_tilde[0, 0] * off,
                        c.S[0, 0] * np.eye(N), spec.info.delays,
                        spec.horizon)[0]


class TestPrimitiveOracle:
    """The node recursion's optimum against the best admissible linear
    policy found column by column in primitive form, zero-delay cycles
    included."""

    @pytest.mark.parametrize("graph", list(ORACLE_DELAYS))
    def test_node_recursion_is_optimal(self, graph):
        spec = oracle_plant(np.random.default_rng(7), ORACLE_DELAYS[graph])
        assert validate(spec).ok
        _, cost = solve_delayed_finite(spec)
        want = oracle_cost(spec)
        assert abs(cost - want) <= 1e-12 * want, (cost, want)

    def test_oracle_discriminates_delays(self):
        """Sharing at once beats sharing a step late on the same plant."""
        at_once = oracle_plant(np.random.default_rng(8),
                               ORACLE_DELAYS["all-zero"])
        late = replace(at_once, info=Delayed(delays=ORACLE_DELAYS["full3"]))
        (fast, fast_want), (slow, slow_want) = (
            (solve_delayed_finite(s)[1], oracle_cost(s))
            for s in (at_once, late))
        assert abs(fast - fast_want) <= 1e-12 * fast_want
        assert abs(slow - slow_want) <= 1e-12 * slow_want
        assert fast < slow * (1.0 - 1e-3), (fast, slow)


@pytest.mark.parametrize("run, named", [
    (lambda spec: closed_loop_cost(spec, solve_delayed_infinite(spec)[0]),
     "finite horizon required"),
    (lambda spec: solve_delayed_finite(spec)[0].schedule((0,), 5),
     "horizon 5 differs from the policy's horizon 3"),
], ids=["stationary-cost-without-horizon", "schedule-at-another-horizon"])
def test_input_error_names_its_field(run, named):
    with pytest.raises(ValueError) as info:
        run(coupled_delayed_spec_2dm(T=3))
    assert info.type is ValueError
    assert named in str(info.value)
