"""Problem-instance data model shared by the solvers and the simulator.

A team instance bundles per-agent linear dynamics, a quadratic stage cost with
optional control/state coupling, a zero-mean noise model with exchangeable
initial states, and an information structure (full own-history "tree",
mean-field-scaled tree, or delayed sharing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .info_graph import check_sparsity
from .linalg import (
    SYM_TOL,
    as_matrix,
    asymmetry,
    is_pd,
    is_psd,
    kron,
    sym,
)

INF = math.inf


class DimensionError(ValueError):
    """Inconsistent matrix dimensions in a team spec."""


class SingularCovarianceError(ValueError):
    """Raised when the diagonal initial covariance cannot be inverted."""


def _matrix(M, name):
    """M as a float matrix with finite entries (JSON accepts NaN and
    Infinity, which no check downstream would name)."""
    M = as_matrix(M, name)
    if not np.isfinite(M).all():
        bad = M[~np.isfinite(M)][0]
        raise ValueError(f"{name} has a non-finite entry ({bad})")
    return M


# ---------------------------------------------------------------------------
# dynamics


@dataclass(frozen=True)
class Homogeneous:
    """x_{t+1}^i = A x_t^i + B u_t^i + w_t^i, identical for every agent."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _matrix(self.A, "A"))
        object.__setattr__(self, "B", _matrix(self.B, "B"))
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionError("B row count must match A")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass(frozen=True)
class Blocked:
    """Coupled dynamics x_{t+1} = A x_t + B u_t + w_t with N x N block structure.

    ``A_blocks[i][j]`` is the n x n influence of agent j's state on agent i's
    next state; ``B_blocks`` likewise for controls (n x m blocks).
    """

    A_blocks: tuple
    B_blocks: tuple

    def __post_init__(self):
        A = tuple(tuple(_matrix(a, "A block") for a in row) for row in self.A_blocks)
        B = tuple(tuple(_matrix(b, "B block") for b in row) for row in self.B_blocks)
        N = len(A)
        if N == 0 or any(len(row) != N for row in A):
            raise DimensionError("A_blocks must be a square N x N grid")
        if len(B) != N or any(len(row) != N for row in B):
            raise DimensionError("B_blocks must be a square N x N grid")
        n = A[0][0].shape[0]
        m = B[0][0].shape[1]
        for row in A:
            for blk in row:
                if blk.shape != (n, n):
                    raise DimensionError("all A blocks must be n x n")
        for row in B:
            for blk in row:
                if blk.shape != (n, m):
                    raise DimensionError("all B blocks must be n x m")
        object.__setattr__(self, "A_blocks", A)
        object.__setattr__(self, "B_blocks", B)

    @property
    def n_dm(self):
        return len(self.A_blocks)

    @property
    def n(self):
        return self.A_blocks[0][0].shape[0]

    @property
    def m(self):
        return self.B_blocks[0][0].shape[1]


# ---------------------------------------------------------------------------
# cost / noise


@dataclass(frozen=True)
class CostSpec:
    """Quadratic stage-cost blocks.

    Q, R weight each agent's own state/control; R_tilde couples pairs of
    controls, Q_tilde pairs of states, and S is the delayed-sharing cost's
    state-control cross term.  An absent R_tilde, Q_tilde or S is held as a
    zero matrix of shape (m, m), (n, n) or (n, m), sized from Q and R, and
    an all-zero block means no coupling.

    One pair convention holds at every N: Tree and Delayed information price
    the team cost sum_i (x^i' Q x^i + u^i' R u^i) + sum_{i != j} (u^i' R_tilde
    u^j + x^i' Q_tilde x^j), each ordered pair once (Delayed adds 2 x^i' S u^i;
    Tree specs leave Q_tilde and S zero); MeanFieldTree weighs both pair sums
    2/(N-1) and leaves S zero.  One stage convention holds in every class:
    a reported J is 1/T times the expected cost of the stages t < T, of the
    team, or of one agent for ``mean_field_limit`` (at any N: see
    ``tree.spread_weights``), and nothing after them is charged (every
    backward recursion starts from a zero value at T).
    """

    Q: np.ndarray
    R: np.ndarray
    R_tilde: np.ndarray = None
    Q_tilde: np.ndarray = None
    S: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "Q", _matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _matrix(self.R, "R"))
        n, m = len(self.Q), len(self.R)
        for name, shape in (("R_tilde", (m, m)), ("Q_tilde", (n, n)),
                            ("S", (n, m))):
            M = getattr(self, name)
            object.__setattr__(self, name, np.zeros(shape) if M is None
                               else _matrix(M, name))


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean noise model with exchangeable initial states.

    ``init_diag`` is E(x0^i x0^i^T), identical for every agent;
    ``init_offdiag`` is E(x0^i x0^j^T) for i != j, identical across pairs.
    ``family`` picks the sampling distribution with those moments.
    """

    sigma_w: np.ndarray
    init_diag: np.ndarray
    init_offdiag: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        for name in ("sigma_w", "init_diag", "init_offdiag"):
            object.__setattr__(self, name, _matrix(getattr(self, name), name))
        if self.family not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise family {self.family!r}")


def conditional_gain(noise: NoiseSpec) -> np.ndarray:
    """Gain S with E(x0^j | x0^i) = S x0^i for exchangeable Gaussian initials.

    S = init_offdiag @ init_diag^{-1}.  A singular diagonal covariance is
    rejected outright: pseudo-inverting it silently would change the policy
    class the solvers optimize over.
    """
    sd = sym(noise.init_diag)
    so = noise.init_offdiag
    n = sd.shape[0]
    if so.shape != (n, n):
        raise DimensionError("init_offdiag must match init_diag in shape")
    w = np.linalg.eigvalsh(sd)
    if w[0] <= 1e-12 * abs(w[-1]):
        raise SingularCovarianceError(
            "init_diag is singular; add a small ridge (init_diag + eps*I) "
            "or restrict the state to the support of the initial distribution"
        )
    return np.linalg.solve(sd.T, so.T).T


# ---------------------------------------------------------------------------
# information structures


@dataclass(frozen=True)
class Tree:
    """Each agent sees its own full state/action history."""


@dataclass(frozen=True)
class MeanFieldTree:
    """Tree information whose cost weighs each pair 2/(N-1) (see CostSpec)."""


def _delay(v, i, j):
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"info.delays[{i}][{j}] = {v!r} is not a number") \
            from exc


@dataclass(frozen=True)
class Delayed:
    """One-step-delayed sharing: delays[i][j] is how long agent i waits for
    agent j's state; math.inf means never shared."""

    delays: tuple

    def __post_init__(self):
        d = tuple(tuple(_delay(v, i, j) for j, v in enumerate(row))
                  for i, row in enumerate(self.delays))
        N = len(d)
        if N == 0 or any(len(row) != N for row in d):
            raise DimensionError("delays must be a square N x N grid")
        object.__setattr__(self, "delays", d)

    @property
    def n_dm(self):
        return len(self.delays)


# ---------------------------------------------------------------------------
# team spec + validation


@dataclass(frozen=True)
class TeamSpec:
    n_dm: int
    horizon: int
    dynamics: Homogeneous | Blocked
    cost: CostSpec
    noise: NoiseSpec
    info: Tree | MeanFieldTree | Delayed

    def __post_init__(self):
        if self.n_dm < 1:
            raise DimensionError("n_dm must be >= 1")
        if self.horizon < 1:
            raise DimensionError("horizon must be >= 1")
        n = self.dynamics.n
        m = self.dynamics.m
        if isinstance(self.dynamics, Blocked) and self.dynamics.n_dm != self.n_dm:
            raise DimensionError("blocked dynamics grid must be n_dm x n_dm")
        if self.cost.Q.shape != (n, n):
            raise DimensionError("Q must be n x n")
        if self.cost.R.shape != (m, m):
            raise DimensionError("R must be m x m")
        if self.cost.R_tilde.shape != (m, m):
            raise DimensionError("R_tilde must be m x m")
        if self.cost.Q_tilde.shape != (n, n):
            raise DimensionError("Q_tilde must be n x n")
        if self.cost.S.shape != (n, m):
            raise DimensionError("S must be n x m")
        for name in ("sigma_w", "init_diag", "init_offdiag"):
            if getattr(self.noise, name).shape != (n, n):
                raise DimensionError(f"{name} must be n x n")
        if isinstance(self.info, Delayed) and self.info.n_dm != self.n_dm:
            raise DimensionError("delay matrix must be n_dm x n_dm")

    @property
    def n(self):
        return self.dynamics.n

    @property
    def m(self):
        return self.dynamics.m


def stacked_dynamics(spec: TeamSpec):
    """The team's (A, B), N n x N n and N n x N m: Blocked dynamics' own
    grid, or N block-diagonal copies of Homogeneous dynamics."""
    dyn = spec.dynamics
    if isinstance(dyn, Blocked):
        return tuple(np.block([list(row) for row in grid])
                     for grid in (dyn.A_blocks, dyn.B_blocks))
    return kron(np.eye(spec.n_dm), dyn.A), kron(np.eye(spec.n_dm), dyn.B)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    message: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, message=""):
        self.checks.append(Check(name, bool(passed), message))

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def summary(self):
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            msg = f" ({c.message})" if c.message else ""
            lines.append(f"[{tag}] {c.name}{msg}")
        return "\n".join(lines)


def _check_near_symmetric(report, name, M):
    report.add(
        f"{name} symmetric",
        asymmetry(M) <= SYM_TOL * 10,
        f"relative asymmetry {asymmetry(M):.2e}",
    )


def validate(spec: TeamSpec) -> ValidationReport:
    """Run every structural invariant check; dimension mismatches raise at
    construction, everything else is a named pass/fail entry."""
    rep = ValidationReport()
    cost, noise = spec.cost, spec.noise
    N = spec.n_dm
    # an all-zero coupling block is an absent one: no coupling, no lines
    has_Rt, has_Qt, has_S = (np.any(M) for M in (cost.R_tilde,
                                                  cost.Q_tilde, cost.S))

    for name, M, present in (
        ("Q", cost.Q, True),
        ("R", cost.R, True),
        ("R_tilde", cost.R_tilde, has_Rt),
        ("Q_tilde", cost.Q_tilde, has_Qt),
        ("sigma_w", noise.sigma_w, True),
        ("init_diag", noise.init_diag, True),
        ("init_offdiag", noise.init_offdiag, True),
    ):
        if present:
            _check_near_symmetric(rep, name, M)

    rep.add("R positive definite", is_pd(cost.R))
    rep.add("Q positive semidefinite", is_psd(cost.Q))
    if has_Rt:
        rep.add("R_tilde positive definite", is_pd(cost.R_tilde))
    if has_Qt:
        rep.add("Q_tilde positive semidefinite", is_psd(cost.Q_tilde))
    if has_S:
        stacked = np.block([[sym(cost.Q), cost.S], [cost.S.T, sym(cost.R)]])
        rep.add("stacked [Q S; S^T R] PSD", is_psd(stacked))

    rep.add("sigma_w PSD", is_psd(noise.sigma_w))
    sd, so = sym(noise.init_diag), noise.init_offdiag
    # Joint exchangeable covariance is PSD iff both eigenblock combinations are.
    rep.add(
        "joint initial covariance PSD",
        is_psd(sd - sym(so)) and is_psd(sd + (N - 1) * sym(so)),
        "needs init_diag - init_offdiag >= 0 and init_diag + (N-1) init_offdiag >= 0",
    )

    if isinstance(spec.info, Delayed):
        d = spec.info.delays
        self_ok = all(d[i][i] == 0 for i in range(N))
        one_step = all(v in (0.0, 1.0) for row in d for v in row if v != INF)
        rep.add("zero self-delays", self_ok)
        rep.add(
            "delays at most one step",
            one_step,
            "only the one-step-delayed sharing pattern is supported",
        )
        if self_ok and one_step:    # the effective delays need both
            try:
                check_sparsity(d, *stacked_dynamics(spec))
                rep.add("sparsity: dynamics within the delay pattern", True)
            except ValueError as exc:   # named by its first bad block
                rep.add(str(exc), False)
        rep.add(
            "independent initial states (delayed info)",
            not np.any(so != 0.0),
            "delayed-sharing synthesis assumes init_offdiag = 0",
        )
    else:
        if not isinstance(spec.dynamics, Homogeneous):
            rep.add(
                "homogeneous dynamics for tree info",
                False,
                "tree/mean-field solvers need identical per-agent dynamics",
            )
        if isinstance(spec.info, MeanFieldTree):
            rep.add("mean-field population n_dm >= 2", N >= 2,
                    "the 1/(N-1)-scaled coupling needs at least two agents")
        elif has_Qt:
            rep.add("no Q_tilde under tree info", False,
                    "the tree-class cost does not price Q_tilde")
        if has_S:
            rep.add("no S under tree info", False,
                    "the tree-class cost does not price S")

    return rep
