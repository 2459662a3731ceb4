"""Monte Carlo closed-loop engine and structural property checks.

Policies are affine and information-measurable by construction: a tree-class
policy maps each agent's own state and own initial-state statistic to its
control; a graph-class policy reads only the shared estimator states.  A
tree-class profile is one pair of (N, T, m, n) gain arrays, from the
``TreePolicySet`` through its exact price (``tree._price``) to the
rollouts, both weighed by ``tree.spread_weights``, so a mean_field_limit
profile costs per agent.  The engine provides independent cost estimates
(block streams keyed by the seed, hence bitwise deterministic) next to the
solvers' exact formulas.  Every engine runs one loop that draws and prices
one rng block at a time, and a block one noise stage at a time (w_t for
t < T - 1), so beyond one cost per rollout and the per-stage step maps,
memory grows with the block size and the number of compared profiles, not
with the number of rollouts or the horizon.  Checks that compare tree-class
profiles price all of them on one draw (``_tree_crn``), stepping every
profile on each stage as it arrives.  The exchangeability and
symmetrization checks compare a profile with its permutation and with its
average over agents; both are for asymmetric profiles, so ``verify``, whose
tree profiles run one schedule on every agent, runs neither.
The mean-field sweep draws each stage once for its whole schedule, at the
largest population, and every population reads its prefix of that fill
(``_nested_crn``).  Both kernels run rollout-last on the sampler's storage.
The tree-class kernel (``_TreeStepper``) takes one batched matrix product per
profile and step, from every agent's (x_t, c), a contiguous row per entry,
to its control and next state.  The graph-class kernel (``_graph_costs``)
steps every zeta node by node and the plant x on its own, so Monte Carlo
stays an independent check of the exact cost, which runs node by node on
the zeta alone (``delayed._node_moments``) and reads x as their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, repeat

import numpy as np

from . import delayed as _delayed
from . import tree as _tree
from .linalg import kron, psd_factor, sym
from .model import Delayed, TeamSpec, conditional_gain
from .rng import BLOCK, PrimitiveSampler
from .tree import (
    Population,
    TreePolicy,
    cost_weights,
    mean_field,
    predicted_cost,
    solve_tree,
    spread_weights,
    meanfield_limit_policy,
)


# ---------------------------------------------------------------------------
# policy sets


@dataclass(frozen=True)
class TreePolicySet:
    """Per-agent affine schedules u_t^i = K[i, t] x_t^i + L[i, t] c^i with
    c^i = alpha * Sigma * x_0^i; agents need not share schedules.  K and L
    are float (N, T, m, n) gain arrays; any nested sequence of that shape,
    such as a tuple of per-agent tuples of (m x n) gains, converts.
    Raises ValueError when K and L differ in shape, or when the mode names
    a population size other than the agent count N."""

    mode: Population
    K: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", np.array(self.K, dtype=float))
        object.__setattr__(self, "L", np.array(self.L, dtype=float))
        if self.K.shape != self.L.shape:
            raise ValueError(f"K shape {self.K.shape} differs from L shape "
                             f"{self.L.shape}")
        if self.mode.n is not None and self.mode.n != self.n_dm:
            raise ValueError(f"mode population {self.mode.n} differs from "
                             f"the profile's {self.n_dm} agents")

    @property
    def n_dm(self):
        return len(self.K)

    @property
    def horizon(self):
        return self.K.shape[1]

    @classmethod
    def from_policy(cls, policy: TreePolicy, n_dm: int):
        return cls(mode=policy.mode, K=[policy.K] * n_dm, L=[policy.L] * n_dm)

    def permuted(self, perm):
        """Policy profile where agent i runs agent perm[i]'s schedule."""
        return TreePolicySet(mode=self.mode, K=self.K[list(perm)],
                             L=self.L[list(perm)])


@dataclass(frozen=True)
class GraphPolicySet:
    """Delayed-sharing controller: the per-node gain schedules."""

    policy: _delayed.GraphPolicy


@dataclass(frozen=True)
class SimReport:
    mean_cost: float
    std_error: float
    n_rollouts: int
    seed: int


# ---------------------------------------------------------------------------
# Monte Carlo rollouts


def _se(costs):
    """Standard error of the mean of per-rollout costs (0 for one rollout)."""
    n = len(costs)
    return float(np.std(costs, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _block_costs(sampler, T, n_rollouts, seed, price, n_rows):
    """Per-rollout costs of a batch, drawn and priced one rng block at a
    time and one stage at a time, so one block's initial states, its stage
    buffers and the profiles' states are alive at once.  ``price`` maps a
    block's draw, the iterator over its stages (``PrimitiveSampler.draw``),
    to per-rollout costs of the ``n_rows`` profiles it compares; it steps
    all of them on each stage as it arrives (common random numbers).
    Returns one row per profile."""
    costs = np.empty((n_rows, n_rollouts))
    for b in range(-(-n_rollouts // BLOCK)):
        rows = slice(b * BLOCK, min((b + 1) * BLOCK, n_rollouts))
        costs[:, rows] = price(sampler.draw(T, rows.stop - rows.start, seed,
                                            first_block=b))
    return costs


class _TreeStepper:
    """Per-rollout costs of tree-class profiles of one population, stepped
    one noise stage at a time: ``start`` from a block's x0, ``step`` on each
    w_t and on none at T - 1, then ``costs``, one row per profile.

    Runs rollout-last on the (N, n, R) storage of x0 and of the stages.
    Agent i's state under profile p is z^{p,i} = (x_t^i, c^i) with
    c^i = alpha_p Sigma x_0^i, and one batched matrix product per profile
    and step,

        y^i = Gamma_t^{p,i} z^{p,i},
        Gamma_t^{p,i} = [[K, L], [A + B K, B L], [P]],

    gives its control u_t^i = y[:m], its next state less the noise,
    y[m:m+n], which is written back into z with the stage's noise added,
    and P z, whose product with z is the agent's own stage cost:
    P = [K L]^T (w R - cR R~) [K L] + diag(w Q - cQ Q~, 0), with
    (w, cR, cQ) the mode's weights spread over the N agents
    (``tree.spread_weights``), as ``tree._price`` weighs them.  A pair
    coupling c * (sum_i v_i)^T M (sum_j v_j) less its diagonal is thus
    priced with the diagonal folded into the own weights, so what remains
    of it is a quadratic form of the agents' sum.
    """

    def __init__(self, spec: TeamSpec, psets):
        n, m = spec.n, spec.m
        A, B = _tree.tree_dynamics(spec)
        a, b, q, alpha = np.array([cost_weights(p.mode) for p in psets]).T
        w, cR, cQ = spread_weights(a, b, q, psets[0].n_dm)
        Rt, Qt = sym(spec.cost.R_tilde), sym(spec.cost.Q_tilde)
        K = np.stack([p.K for p in psets]).transpose(2, 0, 1, 3, 4)
        L = np.stack([p.L for p in psets]).transpose(2, 0, 1, 3, 4)
        KL = np.concatenate([K, L], axis=4)          # (T, P, N, m, 2n)
        e = np.s_[:, None, None, None]               # a weight per profile
        P = KL.swapaxes(3, 4) @ (w[e] * spec.cost.R - cR[e] * Rt) @ KL
        P[..., :n, :n] += w[e] * spec.cost.Q - cQ[e] * Qt
        self.Gamma = np.concatenate(
            [KL, np.concatenate([A + B @ K, B @ L], axis=4), P], axis=3)
        self.n_dm, self.n, self.m = psets[0].n_dm, n, m
        self.y_rows = self.n_dm * (m + 3 * n)    # of y per rollout
        self.alpha = alpha[:, None, None, None]
        self.Sigma = conditional_gain(spec.noise)
        # the pair couplings that are not identically zero, decided once:
        # (coef, M, whether they couple the controls u or the states x)
        self.pairs = [(coef, M, on_u)
                      for coef, M, on_u in ((cR, Rt, True), (cQ, Qt, False))
                      if np.any(coef) and np.any(M)]

    def start(self, x0, y):
        """Starts a block from x0 (R, N, n); ``y`` is a flat scratch buffer
        of at least ``y_rows`` * R entries, which steppers stepped in turn
        may share."""
        x0 = x0.transpose(1, 2, 0)
        (N, n, R), P = x0.shape, len(self.alpha)
        self.y = y[:self.y_rows * R].reshape(N, -1, R)
        self.z = np.empty((P, N, 2 * n, R))
        self.z[:, :, :n] = x0
        np.multiply(self.alpha, self.Sigma @ x0, out=self.z[:, :, n:])
        self.cost = np.zeros((P, R))

    def step(self, t, w_t=None):
        """Prices stage t of every profile and steps it on w_t (R, N, n)."""
        n, m, y = self.n, self.m, self.y
        for p, (Gamma_tp, z, cost) in enumerate(zip(self.Gamma[t], self.z,
                                                     self.cost)):
            np.matmul(Gamma_tp, z, out=y)
            cost += np.einsum("air,air->r", y[:, m + n:], z)
            for coef, M, on_u in self.pairs:
                s = (y[:, :m] if on_u else z[:, :n]).sum(axis=0)
                cost += coef[p] * np.einsum("ir,ij,jr->r", s, M, s)
            if w_t is not None:
                np.add(y[:, m:m + n], w_t.transpose(1, 2, 0), out=z[:, :n])

    def costs(self):
        return self.cost / len(self.Gamma)


def _tree_price(steppers, y, stages):
    """One block's per-rollout costs under every stepper's profiles, one row
    per profile: each starts from its population's x0, and all step on each
    stage as it arrives, sharing the y scratch, the last without noise."""
    for x, stepper in zip(next(stages), steppers):
        stepper.start(x, y)
    for t, ws in enumerate(chain(stages, [repeat(None)])):
        for w, stepper in zip(ws, steppers):
            stepper.step(t, w)
    return np.concatenate([s.costs() for s in steppers])


def _nested_crn(spec: TeamSpec, T, n_rollouts, seed, populations):
    """Per-rollout costs of profiles of several population sizes, one row
    per profile, on one draw per block and stage.  ``populations`` holds
    one tuple of profiles per size, sizes ascending; the sampler fills each
    stage once at the largest size and every population reads its prefix
    (``rng``), bitwise its own draw, so its rows equal ``_tree_crn``'s."""
    steppers = [_TreeStepper(spec, psets) for psets in populations]
    sizes = [s.n_dm for s in steppers]
    sampler = PrimitiveSampler(spec.noise, sizes[-1], nested=sizes[:-1])
    y = np.empty(max(s.y_rows for s in steppers) * min(BLOCK, n_rollouts))
    rows = _block_costs(sampler, T, n_rollouts, seed,
                        partial(_tree_price, steppers, y),
                        sum(map(len, populations)))
    return np.split(rows, np.cumsum(list(map(len, populations)))[:-1])


def _tree_crn(spec: TeamSpec, T, n_rollouts, seed, *psets):
    """Per-rollout costs of every profile on one draw (common random
    numbers), one row per profile; the profiles share their population."""
    for pset in psets:
        _check_agents(spec, pset)
    return _nested_crn(spec, T, n_rollouts, seed, [psets])[0]


def _tree_mc(spec: TeamSpec, pset: TreePolicySet, T, n_rollouts, seed):
    return _tree_crn(spec, T, n_rollouts, seed, pset)[0]


def _graph_costs(plan, AB, W, T, stages):
    """Per-rollout costs of one batch of primitives, a one-population draw,
    under a graph policy over T stages, given its ``delayed.node_plan``,
    the stacked plant [A B] and stage weight W = [[Q, S], [S^T, R]].

    Runs rollout-last on the (N n, R) storage of x0 and each w_t, which
    enter x and their agents' injection nodes.  ``delayed.step_nodes``
    writes u_t into v = (x_t, u_t), priced as (W v) . v, and the plant
    steps on its own, x_{t+1} = [A B] v + w_t; no cost reads zeta_T or x_T.
    """
    steps, inject, size = plan
    (x0,) = next(stages)
    R, (nx, nv) = len(x0), AB.shape
    z, v, cost = np.zeros((size, R)), np.zeros((nv, R)), np.zeros(R)
    x, u = v[:nx], v[nx:]
    for t, (w,) in zip(range(T), chain([(x0,)], stages), strict=True):
        w = w.transpose(1, 2, 0).reshape(nx, R)      # x0, then w_{t-1}
        x += w
        z[inject] += w
        _delayed.step_nodes(steps, z, u, t, last=t == T - 1)
        cost += np.einsum("ir,ir->r", W @ v, v)
        if t < T - 1:
            np.matmul(AB, v, out=x)
    return cost / T


def _graph_mc(spec: TeamSpec, pset: GraphPolicySet, T, n_rollouts, seed):
    d = _delayed.policy_data(spec, pset.policy)
    plan = _delayed.node_plan(pset.policy.graph, pset.policy, d, T)
    AB, W = np.hstack([d.A, d.B]), np.block([[d.Q, d.S], [d.S.T, d.R]])
    price = partial(_graph_costs, plan, AB, W, T)
    return _block_costs(PrimitiveSampler(spec.noise, spec.n_dm), T,
                        n_rollouts, seed, price, 1)[0]


def _check_horizon(T, horizon):
    """A tree-class profile runs only at its own horizon."""
    if T != horizon:
        raise ValueError(f"horizon {T} differs from the policy's horizon "
                         f"{horizon}")


def _check_agents(spec: TeamSpec, pset: TreePolicySet):
    """A tree-class profile runs only on a population of its own size."""
    if pset.n_dm != spec.n_dm:
        raise ValueError(f"profile has {pset.n_dm} agents, the spec "
                         f"{spec.n_dm}")


def rollout_costs(spec, policies, T, n_rollouts, seed):
    if isinstance(policies, TreePolicySet):
        _check_horizon(T, policies.horizon)
        return _tree_mc(spec, policies, T, n_rollouts, seed)
    if isinstance(policies, GraphPolicySet):
        if not isinstance(spec.info, Delayed):
            raise ValueError("graph policies require delayed information")
        return _graph_mc(spec, policies, T, n_rollouts, seed)
    raise TypeError(f"unsupported policy set type {type(policies).__name__}")


def simulate(spec: TeamSpec, policies, T: int, n_rollouts: int,
             seed: int) -> SimReport:
    costs = rollout_costs(spec, policies, T, n_rollouts, seed)
    return SimReport(mean_cost=float(np.mean(costs)), std_error=_se(costs),
                     n_rollouts=n_rollouts, seed=int(seed))


# ---------------------------------------------------------------------------
# exact (moment-based) evaluation of asymmetric tree profiles


def _price_profile(spec, pset, T, want_grad=False):
    """``tree._price`` of a tree-class profile under its mode's costs."""
    _check_horizon(T, pset.horizon)
    _check_agents(spec, pset)
    return _tree._price(_tree._params(spec, pset.mode), pset.K, pset.L,
                        want_grad)


def exact_cost_general(spec: TeamSpec, policies, T: int) -> float:
    """Exact expected cost for any policy set, by covariance propagation
    (no Monte Carlo error)."""
    if isinstance(policies, GraphPolicySet):
        return _delayed.closed_loop_cost(spec, policies.policy, T)
    return _price_profile(spec, policies, T)[0]


# ---------------------------------------------------------------------------
# structural checks


def exchangeability_check(spec: TeamSpec, policies: TreePolicySet, permutation,
                          n_rollouts: int, seed: int):
    """Estimates J(permuted profile) - J(profile) with common random numbers.

    For exchangeable specs the true difference is zero for any permutation.
    Returns (delta_mean, 3-standard-error half width).
    """
    base, perm = _tree_crn(spec, policies.horizon, n_rollouts, seed,
                           policies, policies.permuted(permutation))
    diff = perm - base
    return float(np.mean(diff)), 3.0 * _se(diff)


def symmetrize(policies: TreePolicySet) -> TreePolicySet:
    """Equal-weight average of the profile over all agent relabelings.

    Averaging the profile over every permutation assigns each agent the
    uniform average of all agents' schedules, so the average is computed in
    closed form rather than by enumerating permutations.
    """
    K, L = policies.K, policies.L
    return TreePolicySet(mode=policies.mode,
                         K=np.broadcast_to(K.mean(axis=0), K.shape),
                         L=np.broadcast_to(L.mean(axis=0), L.shape))


def symmetrization_check(spec: TeamSpec, policies: TreePolicySet,
                         n_rollouts: int, seed: int):
    """cost(symmetrized) vs cost(original) under common random numbers.

    Convexity plus exchangeability implies the symmetrized profile does at
    least as well; returns (cost_sym, cost_orig, 3-SE half width of the
    difference).  On a symmetric profile the band can be 0 while cost_sym
    sits above cost_orig by rounding (3.6e-15 on seven equal schedules), so
    a caller judges a tie by cs <= co + max(ci, 1e-12 * abs(co)).
    """
    orig, symm = _tree_crn(spec, policies.horizon, n_rollouts, seed,
                           policies, symmetrize(policies))
    return float(np.mean(symm)), float(np.mean(orig)), 3.0 * _se(symm - orig)


# ``teamlqg verify`` passes a person-by-person defect (see pbp_check) below
# this, a drop within the rounding of J itself.  Solved policies read at most
# 8e-20 (unstable plants at T >= 30); a gain moved by 1e-3 reads about 1e-7.
PBP_REL_TOL = 1e-16


def pbp_check(spec: TeamSpec, policies, T: int):
    """Person-by-person defect: the largest exact cost drop a single gain
    entry's best move achieves, relative to the profile's cost.

    One gain entry of agent i (or node r) at stage t enters only that
    stage's feedback M_t and closed-loop map F_t = F0 + Bv M_t, both
    linearly, so the exact cost is a quadratic in the move s of that entry:

        J(s) = J + g s + h s^2,

    where g is the partial derivative of J in the entry and h its
    curvature (``moments.gain_sensitivity``, ``delayed._node_moments``: one
    forward pass and one adjoint pass give g and h of every entry at once).
    With h > 0 the best move, s = -g / (2h), lowers the cost by exactly
    g^2 / (4h).  The defect is the largest such drop over the entries of
    every agent's K and L (or every node's gain), divided by |J|: a ratio
    of costs, so scaling the cost, the noise or the coordinates leaves it
    unchanged.  At a person-by-person stationary policy every g vanishes,
    and the defect is 0 up to rounding; a clearly positive one flags a
    policy that some single decision maker can improve.  Entries with
    h <= 0 are skipped: h = H_t Z_t[col, col] = 0 (H_t > 0 as R > 0) on an
    identically zero state, where g = 0 too; with none left the defect is 0.

    Returns (defect, where, J): ``where`` names the entry attaining it, as
    (holder, t, gain, (row, col), g) with holder "agent i" or "node {..}"
    and gain "K", "L" or "gain"; J is the profile's exact cost, from the
    same propagation.  Raises ValueError when T differs from the profile's
    horizon.
    """
    if isinstance(policies, GraphPolicySet):
        terms, cost = _pbp_graph(spec, policies, T)
    else:
        terms, cost = _pbp_tree(spec, policies, T)
    best, where = -np.inf, None
    for (holder, gain), (g, h) in terms.items():
        drop = np.divide(g * g, 4.0 * h, out=np.full(g.shape, -np.inf),
                         where=h > 0.0)
        idx = np.unravel_index(np.argmax(drop), drop.shape)
        if drop[idx] > best or where is None:   # defect 0 if all skipped
            best = float(drop[idx])
            where = (holder, int(idx[0]), gain, (int(idx[1]), int(idx[2])),
                     float(g[idx]))
    return (best / abs(cost) if best > 0.0 else 0.0), where, cost


def _pbp_tree(spec, pset, T):
    """pbp terms of every agent's K and L, the x_t^i and c^i columns of its
    gains (``tree._price``), and the profile's exact cost."""
    cost, g, h = _price_profile(spec, pset, T, want_grad=True)
    return {(f"agent {i + 1}", gain): (g[i, ..., cols], h[i, ..., cols])
            for i in range(pset.n_dm)
            for gain, cols in (("K", slice(spec.n)),
                               ("L", slice(spec.n, None)))}, cost


def _pbp_graph(spec, policies, T):
    """pbp terms of every information-graph node's gain, and the policy's
    exact cost."""
    pol = policies.policy
    if pol.horizon is None:
        raise ValueError("finite-horizon graph policy required")
    cost, _, terms = _delayed._node_moments(spec, pol, T, want_grad=True)
    return {(f"node {{{_delayed.node_key(r)}}}", "gain"): gh
            for r, gh in terms.items()}, cost


def certainty_equivalence_check(spec: TeamSpec, policies: TreePolicySet,
                                exact_cost: float, n_rollouts: int,
                                seed: int):
    """Uniform-noise Monte Carlo cost of a profile against its exact cost.

    The exact cost reads the noise only through its covariances, so it is
    the same under every family with the spec's moments.  ``exact_cost`` is
    that cost of ``policies`` (``verify`` passes the one ``pbp_check``'s
    propagation computed).  The profile rolls out under the uniform family
    (identical covariances), and its mean must lie within 3 standard errors
    of ``exact_cost``.  That the solved gains do not depend on the family
    holds by construction: no solver reads it.
    """
    uni_spec = replace(spec, noise=replace(spec.noise, family="uniform"))
    rep = simulate(uni_spec, policies, policies.horizon, n_rollouts, seed)
    band = 3.0 * rep.std_error
    return {
        "exact_cost": float(exact_cost),
        "uniform_mc_cost": rep.mean_cost,
        "uniform_mc_3se": band,
        "uniform_mc_within_3se": bool(abs(rep.mean_cost - exact_cost)
                                      <= band),
    }


# ---------------------------------------------------------------------------
# mean-field sweep


def _policy_distance(spec: TeamSpec, mode: Population, pol_a, pol_b):
    """Exact per-agent distance between two symmetric tree policies.

    One agent's closed loop runs both policies at once on z = (e, x^b, c),
    e = x^a - x^b, with c = alpha Sigma x_0 held constant: x^b starts at
    the agent's x_0 and sees its noise, e starts at 0 and sees none, and
    the feedback is v = (u^a - u^b, u^b), where

        u^a - u^b = K^a e + (K^a - K^b) x^b + (L^a - L^b) c.

    z_t = P_t xi is linear in the agent's whitened primitives xi (x_0 and
    w_s, s < t), so y = (u^a - u^b, u^b, e, x^b) has loadings
    V_t = [M_t; I 0] P_t and moments E y y' = V V', a Gram matrix: the
    surrogate is a sum of squares, never negative, and exactly 0 for equal
    policies, under which e and u^a - u^b stay exactly 0.  Under tree
    information an agent's trajectory depends only on its own primitives,
    so this one agent carries the per-agent moments of any population.
    Returns (||E u^a u^a' - E u^b u^b'|| + ||E x^a x^a' - E x^b x^b'||,
    Frobenius over the stages t < T; (1/T) sum_t E|u_t^a - u_t^b|^2).
    """
    p = _tree._params(spec, mode)
    n, m = spec.n, spec.m
    Ka, La, Kb, Lb = map(np.asarray, (pol_a.K, pol_a.L, pol_b.K, pol_b.L))
    T = len(Ka)
    M = np.block([[Ka, Ka - Kb, La - Lb], [np.zeros_like(Kb), Kb, Lb]])
    F = (kron(np.diag([1.0, 1.0, 0.0]), p.A) + kron(np.eye(3, 2), p.B) @ M
         + np.diag(np.repeat([0.0, 0.0, 1.0], n)))
    P = np.vstack([np.zeros((n, n)), np.eye(n), p.alpha * p.Sigma]) \
        @ psd_factor(p.Sd)
    noise = np.vstack([np.zeros((n, n)), psd_factor(p.W), np.zeros((n, n))])
    E = np.concatenate([M, np.broadcast_to(np.eye(2 * n, 3 * n),
                                           (T, 2 * n, 3 * n))], axis=1)
    Eyy = np.empty((T, len(E[0]), len(E[0])))
    for t in range(T):
        V = E[t] @ P
        Eyy[t] = V @ V.T
        P = np.hstack([F[t] @ P, noise])
    du, ub, e, xb = (slice(0, m), slice(m, 2 * m), slice(2 * m, 2 * m + n),
                     slice(2 * m + n, None))
    second = sum(np.linalg.norm(Eyy[:, a, a] + Eyy[:, a, b] + Eyy[:, b, a])
                 for a, b in ((du, ub), (e, xb)))
    return float(second), float(np.einsum("tii->", Eyy[:, du, du]) / T)


def mft_sweep(spec: TeamSpec, T: int, schedule, n_rollouts: int, seed: int):
    """Convergence table of the N-agent mean-field optima toward the limit.

    For each N in the schedule: the N-optimal coupling gains and their
    change from the previous N, and, exactly by moment propagation, the
    N-optimal cost, the cost of the frozen limit policy on the N-agent
    problem and their gap, the per-agent distance between the two
    policies' second moments of (control, state), and the uniform
    integrability surrogate (1/T) sum_t E|u^N - u^inf|^2.  Monte Carlo
    rollouts of both policies on common random numbers check the exact
    cost and gap (``mc_cost``, ``mc_cost_gap`` and their 3-SE bands).
    Every population is priced on one draw per block and stage, filled at
    the largest N (``_nested_crn``); each population's costs equal its
    standalone ``_tree_crn`` rows bit for bit.
    """
    schedule = sorted({int(N) for N in schedule})
    if len(schedule) < 3:
        raise ValueError("schedule needs at least 3 distinct population "
                         "sizes")
    limit = meanfield_limit_policy(spec, T)

    exact, profiles, prev_L = [], [], None
    for N in schedule:
        nspec, mode = replace(spec, n_dm=N), mean_field(N)
        pol = solve_tree(nspec, T, mode=mode)
        l_diff = (None if prev_L is None
                  else float(max(map(np.linalg.norm, pol.L - prev_L))))
        prev_L = pol.L
        frozen = replace(limit, mode=mode)
        exact.append((N, l_diff, predicted_cost(nspec, pol),
                      predicted_cost(nspec, frozen),
                      *_policy_distance(nspec, mode, pol, limit)))
        profiles.append((TreePolicySet.from_policy(pol, N),
                         TreePolicySet.from_policy(frozen, N)))

    rows = []
    for (N, l_diff, predicted, limit_cost, second, ui), (costs_n, costs_l) \
            in zip(exact, _nested_crn(spec, T, n_rollouts, seed, profiles)):
        rows.append({
            "N": N,
            "L_diff_prev": l_diff,
            "predicted_cost": predicted,
            "mc_cost": float(np.mean(costs_n)),
            "mc_3se": 3.0 * _se(costs_n),
            "limit_policy_cost": limit_cost,
            "cost_gap": limit_cost - predicted,
            "mc_cost_gap": float(np.mean(costs_l - costs_n)),
            "cost_gap_3se": 3.0 * _se(costs_l - costs_n),
            "moment_dist_second": second,
            "ui_surrogate": ui,
        })
    return rows
