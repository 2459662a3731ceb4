"""Knowledge-set graph construction, the sparsity rule, and partitioning."""

import math

import numpy as np
import pytest

from teamlqg.delayed import solve_delayed_finite
from teamlqg.info_graph import (
    UnsupportedStructureError,
    build_info_graph,
    check_sparsity,
    effective_delays,
    partition,
)
from teamlqg.model import (
    Blocked,
    CostSpec,
    Delayed,
    NoiseSpec,
    TeamSpec,
    stacked_dynamics,
    validate,
)

INF = math.inf


def blocked_scalar(Ablocks, Bblocks=None):
    A = tuple(tuple(np.array([[v]], dtype=float) for v in row) for row in Ablocks)
    if Bblocks is None:
        Bblocks = [[1.0 if i == j else 0.0 for j in range(len(Ablocks))]
                   for i in range(len(Ablocks))]
    B = tuple(tuple(np.array([[v]], dtype=float) for v in row) for row in Bblocks)
    return Blocked(A_blocks=A, B_blocks=B)


class TestEffectiveDelays:
    def test_direct_links(self):
        E = effective_delays([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(E, [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_delay_relay(self):
        # 1 sees 2 instantly, 2 sees 3 instantly => 1 sees 3 instantly.
        D = [[0.0, 0.0, INF], [INF, 0.0, 0.0], [INF, INF, 0.0]]
        E = effective_delays(D)
        assert E[0][2] == 0.0

    def test_one_step_relay(self):
        # 1 learns 2 after one step, 2 knows 3 instantly => 1 learns 3 in one.
        D = [[0.0, 1.0, INF], [INF, 0.0, 0.0], [INF, INF, 0.0]]
        E = effective_delays(D)
        assert E[0][2] == 1.0

    def test_nonzero_self_delay_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            effective_delays([[1.0, 1.0], [1.0, 0.0]])

    def test_delay_two_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            effective_delays([[0.0, 2.0], [1.0, 0.0]])


class TestBuildInfoGraph:
    def test_single_dm(self):
        g = build_info_graph([[0.0]])
        assert g.nodes == ((0,),)
        assert g.successor_map[(0,)] == (0,)
        assert g.injection_map[0] == (0,)

    def test_two_dm_delay_one(self):
        g = build_info_graph([[0.0, 1.0], [1.0, 0.0]])
        assert set(g.nodes) == {(0,), (1,), (0, 1)}
        assert g.successor_map[(0,)] == (0, 1)
        assert g.successor_map[(1,)] == (0, 1)
        assert g.successor_map[(0, 1)] == (0, 1)
        assert g.injection_map == {0: (0,), 1: (1,)}

    def test_two_dm_disconnected(self):
        g = build_info_graph([[0.0, INF], [INF, 0.0]])
        assert set(g.nodes) == {(0,), (1,)}
        assert g.successor_map[(0,)] == (0,)
        assert g.successor_map[(1,)] == (1,)

    def test_node_count_bound_and_chain_length(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            N = int(rng.integers(1, 6))
            D = np.full((N, N), INF)
            np.fill_diagonal(D, 0.0)
            for i in range(N):
                for j in range(N):
                    if i != j and rng.random() < 0.5:
                        D[i, j] = 1.0
            g = build_info_graph(D)
            assert len(g.nodes) <= N * N + N
            for node in g.nodes:
                assert len(node) >= 1
                assert len(g.chain(node)) <= N + 1

    def test_successor_uniqueness_by_construction(self):
        g = build_info_graph([[0.0, 1.0, INF],
                              [1.0, 0.0, 1.0],
                              [INF, 1.0, 0.0]])
        seen = {}
        for r, s in g.edges:
            assert r not in seen
            seen[r] = s
        assert set(seen) == set(g.nodes)

    def test_permutation_equivariance(self):
        D = np.array([[0.0, 1.0, INF],
                      [INF, 0.0, 1.0],
                      [1.0, INF, 0.0]])
        perm = [2, 0, 1]
        Dp = D[np.ix_(perm, perm)]
        g = build_info_graph(D)
        gp = build_info_graph(Dp)
        inv = {perm[k]: k for k in range(3)}
        relabel = lambda s: tuple(sorted(inv[i] for i in s))
        assert set(map(relabel, g.nodes)) == set(gp.nodes)
        for r in g.nodes:
            assert relabel(g.successor_map[r]) == gp.successor_map[relabel(r)]


def scalar_team(dyn, delays):
    """A scalar Delayed team over the Blocked dynamics ``dyn``."""
    return TeamSpec(
        n_dm=dyn.n_dm, horizon=3, dynamics=dyn,
        cost=CostSpec(Q=[[1.0]], R=[[1.0]]),
        noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                        init_offdiag=[[0.0]]),
        info=Delayed(delays=delays))


def check_team(dyn, delays):
    """``check_sparsity`` of ``scalar_team``'s delays and stacked dynamics."""
    check_sparsity(delays, *stacked_dynamics(scalar_team(dyn, delays)))


class TestValidateSparsity:
    """``check_sparsity``: a block of A or B may couple agent j into agent
    i only where the effective delay E[i, j] is at most 1."""

    def test_decoupled_passes(self):
        dyn = blocked_scalar([[0.5, 0.0], [0.0, 0.5]])
        check_team(dyn, [[0.0, INF], [INF, 0.0]])

    def test_coupling_block_beyond_delay_fails(self):
        dyn = blocked_scalar([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError,
                           match=r"^sparsity: A\^\{12\} must be zero"):
            check_team(dyn, [[0.0, INF], [INF, 0.0]])

    def test_control_block_beyond_delay_fails(self):
        """B is read as A is: agent 1's control entering agent 3's state
        two steps before agent 3 learns of it is refused."""
        dyn = blocked_scalar(0.5 * np.eye(3),
                             [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                              [0.4, 0.0, 1.0]])
        delays = [[0.0, 1.0, INF], [1.0, 0.0, 1.0], [INF, 1.0, 0.0]]
        with pytest.raises(ValueError, match=r"B\^\{31\} must be zero "
                                             r"\(effective delay 2 > 1\)"):
            check_team(dyn, delays)

    def test_zero_delay_cycle_passes_and_solves(self):
        """Agents that see each other at once share every knowledge set, so
        the coupled pair is one self-loop node, which the recursion solves
        as a centralized team."""
        delays = [[0.0, 0.0], [0.0, 0.0]]
        dyn = blocked_scalar([[0.5, 0.3], [0.2, 0.5]], [[1.0, 0.4],
                                                        [0.1, 1.0]])
        check_team(dyn, delays)
        spec = scalar_team(dyn, delays)
        assert validate(spec).ok
        pol, cost = solve_delayed_finite(spec, 3)
        assert pol.graph.nodes == ((0, 1),)
        assert np.isfinite(cost) and cost > 0.0

    def test_delay_one_coupling_allowed(self):
        dyn = blocked_scalar([[0.5, 0.3], [0.2, 0.5]])
        check_team(dyn, [[0.0, 1.0], [1.0, 0.0]])


class TestPartition:
    def test_identity_partition(self):
        out = partition(np.eye(2), [0], [0, 1], 2, 1, 1)
        assert np.array_equal(out, [[1.0, 0.0]])

    def test_full_subsets_identity(self):
        M = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(partition(M, [0, 1], [0, 1], 2, 2, 2), M)

    def test_diagonal_selection(self):
        M = np.diag([3.0, 7.0])
        assert np.array_equal(partition(M, [1], [1], 2, 1, 1), [[7.0]])

    def test_sorted_order_and_rect_blocks(self):
        # 2 agents, 2x1 blocks (row_block=2, col_block=1)
        M = np.arange(8.0).reshape(4, 2)
        out = partition(M, [1, 0], [1], 2, 2, 1)
        assert np.array_equal(out, M[:, 1:2])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            partition(np.eye(2), [2], [0], 2, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partition(np.eye(3), [0], [0], 2, 1, 1)
