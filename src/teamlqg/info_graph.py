"""Information graph for one-step-delayed sharing with sparsity.

Each agent's observation of agent j's state arrives after ``delays[i][j]``
steps (0, 1, or never).  Knowledge propagates along links, so the effective
delay between agents is the shortest-path delay.  The graph nodes are the
knowledge sets s_k^j = {i : effective delay from j to i <= k}; each node has a
unique successor (the set reachable in one more step), and every chain
s_0^j -> s_1^j -> ... terminates in a self-loop node within N steps.

``check_sparsity`` states which dynamics the graph carries: agent j's
state may enter agent i's dynamics only if E[i, j] <= 1.  Zero-delay cycles
are accepted: agents that see each other at once hold the same knowledge
sets, so a cycle sits inside one node (all zero delays give the single
self-loop node of every agent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


class UnsupportedStructureError(ValueError):
    """Delay pattern outside the one-step-delayed sharing class."""


def effective_delays(delays):
    """All-pairs shortest-path delays over the link graph (Floyd-Warshall).

    Entry (i, j) is the earliest lag at which agent i can know agent j's
    state; direct links have weight delays[i][j] and knowledge relays
    through intermediaries.  Zero-delay links relay at zero cost, which is
    why hop counting alone is not enough.
    """
    D = np.asarray(delays, dtype=float)
    N = D.shape[0]
    if D.shape != (N, N):
        raise ValueError("delays must be square")
    for i in range(N):
        if D[i, i] != 0.0:
            raise UnsupportedStructureError("self-delays must be zero")
    finite = D[np.isfinite(D)]
    if np.any((finite != 0.0) & (finite != 1.0)):
        raise UnsupportedStructureError(
            "finite delays must be 0 or 1 (one-step-delayed sharing)"
        )
    E = D.copy()
    for k in range(N):
        E = np.minimum(E, E[:, k:k + 1] + E[k:k + 1, :])
    return E


@dataclass(frozen=True)
class InfoGraph:
    """Knowledge-set graph: nodes are sorted DM-index tuples, each node has a
    unique successor, and noise/initial-state i enters the graph at the node
    of agents that observe agent i with zero effective delay."""

    n_dm: int
    nodes: tuple          # tuple of sorted tuples of DM indices
    edges: tuple          # (r, s) node pairs with successor(r) = s
    successor_map: dict   # node -> node
    injection_map: dict   # DM i -> node s_0^i, receiving x_0^i and w_t^i

    def self_loop_nodes(self):
        return tuple(s for s in self.nodes if self.successor_map[s] == s)

    def chain(self, node):
        """Successor chain from ``node`` up to and including its fixed point."""
        out = [node]
        while self.successor_map[out[-1]] != out[-1]:
            out.append(self.successor_map[out[-1]])
        return out

    def adjacency_listing(self):
        fmt = lambda s: "{" + ",".join(str(i + 1) for i in s) + "}"
        return "\n".join(
            f"{fmt(r)} -> {fmt(self.successor_map[r])}" for r in self.nodes
        )


def build_info_graph(delays) -> InfoGraph:
    """Assemble the knowledge-set graph from an N x N delay matrix."""
    E = effective_delays(delays)
    N = E.shape[0]

    def knows_within(j, k):
        return tuple(int(i) for i in range(N) if E[i, j] <= k)

    def successor(s):
        return tuple(
            int(i) for i in range(N) if min(E[i, l] for l in s) <= 1.0
        )

    nodes = set()
    injection_map = {}
    for j in range(N):
        k = 0
        s = knows_within(j, 0)
        injection_map[j] = s
        while True:
            nodes.add(s)
            k += 1
            nxt = knows_within(j, k)
            if nxt == s:
                break
            s = nxt

    node_list = tuple(sorted(nodes, key=lambda s: (len(s), s)))
    successor_map = {s: successor(s) for s in node_list}
    for s, nxt in successor_map.items():
        if nxt not in nodes:
            # The one-more-step set of any s_k^j is s_{k+1}^j, already a node.
            raise AssertionError(f"successor of {s} escaped the node set")
    edges = tuple((s, successor_map[s]) for s in node_list)
    return InfoGraph(
        n_dm=N,
        nodes=node_list,
        edges=edges,
        successor_map=successor_map,
        injection_map=injection_map,
    )


def check_sparsity(delays, A, B):
    """Raise ValueError naming the first off-diagonal block A^{ij} or B^{ij}
    of the stacked dynamics (A Nn x Nn, B Nn x Nm) that is nonzero although
    agent i learns agent j's state only after more than one step,
    E[i, j] > 1 (E the effective delays).

    This is the rule the node decomposition x = sum_r I^{.,r} zeta^r needs:
    A and B move each node's agents only into its successor.  The two say
    the same, because agent j's injection node contains j and E obeys the
    triangle inequality, so that node's successor is {i : E[i, j] <= 1}
    and every other node holding j has a successor containing it.
    Zero-delay cycles pass: their agents know each other's states at once,
    so they share every knowledge set, and the graph carries them in one
    node.
    """
    E = effective_delays(delays)
    N = len(E)
    moves = np.stack([np.any(np.reshape(M, (N, len(M) // N, N, -1)),
                             axis=(1, 3)) for M in (A, B)], axis=-1)
    bad = np.argwhere(moves & (E > 1.0)[..., None])
    if len(bad):
        i, j, k = bad[0]
        raise ValueError(f"sparsity: {'AB'[k]}^{{{i + 1}{j + 1}}} must be "
                         f"zero (effective delay {E[i, j]:g} > 1)")


def partition(M_full, row_subset, col_subset, n_dm, row_block, col_block):
    """Block submatrix of an (n_dm*row_block) x (n_dm*col_block) matrix.

    Stacks blocks whose agent row index is in ``row_subset`` and agent
    column index is in ``col_subset``, both in sorted order.
    """
    M = np.asarray(M_full, dtype=float)
    if M.shape != (n_dm * row_block, n_dm * col_block):
        raise ValueError(
            f"expected shape {(n_dm * row_block, n_dm * col_block)}, got {M.shape}"
        )
    rows = sorted(row_subset)
    cols = sorted(col_subset)
    if any(i < 0 or i >= n_dm for i in rows + cols):
        raise IndexError("DM index out of range")
    blocks = M.reshape(n_dm, row_block, n_dm, col_block)[rows][:, :, cols]
    return blocks.reshape(len(rows) * row_block, len(cols) * col_block)
