"""Tree-information solver: gain recursions, coupling-gain oracle, cost
formulas, infinite horizon, and the mean-field limit.

The oracle here is deliberately independent of the package's per-agent
pricer: it propagates the full stacked joint covariance of all N agents
plus their initial states and reconstructs the quadratic-in-L cost exactly,
then minimizes it in closed form.
"""

from dataclasses import replace

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from teamlqg import tree as tree_module
from teamlqg.delayed import stacked_data
from teamlqg.model import (
    CostSpec,
    Delayed,
    Homogeneous,
    MeanFieldTree,
    NoiseSpec,
    TeamSpec,
    Tree,
    conditional_gain,
    validate,
)
from teamlqg.linalg import spectral_radius
from teamlqg.riccati import RiccatiError, dare_solve
from teamlqg.sim import (
    TreePolicySet,
    exact_cost_general,
    simulate,
)
from teamlqg.tree import (
    CouplingSystemError,
    TreePolicy,
    cost_weights,
    mean_field,
    mean_field_limit,
    meanfield_limit_policy,
    n_dm,
    predicted_cost,
    solve_coupling_gains,
    solve_infinite_tree,
    solve_k_p,
    solve_tree,
    spread_weights,
)

from conftest import (
    assert_nondegenerate,
    closed_form_cost_variants,
    coupled_delayed_spec_2dm,
    rand_pd,
    rand_psd,
    random_tree_spec,
    scalar_mf_spec,
    scalar_tree_spec,
)
from kron_reference import reference_solve, reference_stationary_schedule
from stacked_reference import pair_cost_and_grad, stacked_price

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def policy_cost_gradient(spec, T, K, L, mode):
    """Exact cost and its gradient in L of the symmetric policy
    u_t^i = K_t x_t^i + L_t c^i (``tree._cost_and_grad`` on one schedule)."""
    p = tree_module._params(spec, mode)
    Lb = np.asarray(L, dtype=float).reshape(1, T, spec.m, spec.n)
    J, g = tree_module._cost_and_grad(p, K, Lb)
    return float(J[0]), g[0]


# ---------------------------------------------------------------------------
# independent oracle: stacked joint-covariance cost


MODES = [n_dm(2), n_dm(3), mean_field(4), mean_field_limit()]
MODE_IDS = ["n_dm2", "n_dm3", "mean_field4", "mean_field_limit"]


def has_qt(mode):
    """Whether the mode weighs the cross-state term Q~ (mean-field modes)."""
    return mode.kind in ("mean_field_N", "mean_field_limit")


def pop_size(mode):
    return 2 if mode.kind == "mean_field_limit" else mode.n


def oracle_cost(spec, T, K, Lflat, mode):
    """Total expected cost of u_t^i = K_t x_t^i + L_t c^i via one joint
    covariance recursion on z = (x^1..x^N, x0^1..x0^N)."""
    N = pop_size(mode)
    a, b, q, alpha = cost_weights(mode)
    own, cR, cQ = spread_weights(a, b, q, N)
    eye, off = np.eye(N), np.ones((N, N)) - np.eye(N)
    Rt, Qt = spec.cost.R_tilde, spec.cost.Q_tilde
    Qfull = np.kron(eye, own * spec.cost.Q) + np.kron(off, cQ * Qt)
    Rfull = np.kron(eye, own * spec.cost.R) + np.kron(off, cR * Rt)
    return joint_cost(spec, T, K, Lflat, alpha, Qfull, Rfull)


def stacked_cost(spec, T, K, Lflat, alpha):
    """The joint recursion's cost under the stacked stage weights of the
    delayed class, which weigh each ordered pair's u^i' R~ u^j once."""
    d = stacked_data(spec)
    return joint_cost(spec, T, K, Lflat, alpha, d.Q, d.R)


def joint_cost(spec, T, K, Lflat, alpha, Qfull, Rfull):
    """Expected cost, averaged over T, of every agent running
    u_t^i = K_t x_t^i + L_t c^i, with stage weights Qfull and Rfull on the
    stacked (x^1..x^N) and (u^1..u^N)."""
    n, m = spec.n, spec.m
    N = len(Qfull) // n
    L = np.asarray(Lflat, dtype=float).reshape(T, m, n)
    A, B = spec.dynamics.A, spec.dynamics.B
    Sigma = conditional_gain(spec.noise)
    Sd, So = spec.noise.init_diag, spec.noise.init_offdiag
    W = spec.noise.sigma_w
    eye, off = np.eye(N), np.ones((N, N)) - np.eye(N)
    Sig0 = np.kron(eye, 0.5 * (Sd + Sd.T)) + np.kron(off, 0.5 * (So + So.T))
    Z = np.block([[Sig0, Sig0], [Sig0, Sig0]])
    dim = 2 * N * n

    total = 0.0
    for t in range(T):
        M = np.zeros((N * m, dim))
        F = np.zeros((dim, dim))
        F[N * n:, N * n:] = np.eye(N * n)
        for i in range(N):
            M[i * m:(i + 1) * m, i * n:(i + 1) * n] = K[t]
            M[i * m:(i + 1) * m, N * n + i * n:N * n + (i + 1) * n] = \
                alpha * L[t] @ Sigma
            F[i * n:(i + 1) * n, i * n:(i + 1) * n] = A + B @ K[t]
            F[i * n:(i + 1) * n, N * n + i * n:N * n + (i + 1) * n] = \
                alpha * B @ L[t] @ Sigma
        stage = np.zeros((dim, dim))
        stage[: N * n, : N * n] = Qfull
        stage += M.T @ Rfull @ M
        total += float(np.trace(stage @ Z))
        Z = F @ Z @ F.T
        Z[: N * n, : N * n] += np.kron(eye, W)
    return total / T


def dense_reference_L(spec, T, mode):
    """Minimizer from the dense Hessian of the exact cost: gradients at the
    origin and at every unit L, then one dense solve."""
    K, _ = solve_k_p(spec, T)
    d = T * spec.m * spec.n
    basis = np.eye(d).reshape(d, T, spec.m, spec.n)
    _, g0 = policy_cost_gradient(spec, T, K, np.zeros((T, spec.m, spec.n)), mode)
    H = np.stack([policy_cost_gradient(spec, T, K, e, mode)[1] - g0
                  for e in basis]).reshape(d, d)
    return np.linalg.solve(0.5 * (H + H.T), -g0.ravel()).reshape(T, spec.m, spec.n)


def oracle_L(spec, T, mode):
    """Exact minimizer of the quadratic oracle cost over the stacked L."""
    K, _ = solve_k_p(spec, T)
    d = T * spec.m * spec.n
    J0 = oracle_cost(spec, T, K, np.zeros(d), mode)
    e = np.eye(d)
    Jp = np.array([oracle_cost(spec, T, K, e[i], mode) for i in range(d)])
    Jm = np.array([oracle_cost(spec, T, K, -e[i], mode) for i in range(d)])
    g = 0.5 * (Jp - Jm)
    H = np.empty((d, d))
    for i in range(d):
        H[i, i] = Jp[i] + Jm[i] - 2.0 * J0
        for j in range(i + 1, d):
            Jij = oracle_cost(spec, T, K, e[i] + e[j], mode)
            H[i, j] = H[j, i] = Jij - Jp[i] - Jp[j] + J0
    return np.linalg.solve(H, -g).reshape(T, spec.m, spec.n)


# ---------------------------------------------------------------------------
# K / P recursion


class TestSolveKP:
    def test_single_stage(self, rng):
        spec = random_tree_spec(rng, T=1)
        K, P = solve_k_p(spec, 1)
        assert np.allclose(K[0], 0.0)
        assert np.allclose(P[0], 0.5 * (spec.cost.Q + spec.cost.Q.T))
        assert np.allclose(P[1], 0.0)

    def test_scalar_two_stage(self):
        spec = scalar_tree_spec(T=2)
        K, P = solve_k_p(spec, 2)
        assert K[1][0, 0] == pytest.approx(0.0)
        assert P[1][0, 0] == pytest.approx(1.0)
        assert K[0][0, 0] == pytest.approx(-0.5)
        assert P[0][0, 0] == pytest.approx(1.5)

    def test_gain_approaches_stationary(self):
        spec = scalar_tree_spec(T=60)
        K, _ = solve_k_p(spec, 60)
        assert abs(K[0][0, 0] - (-PHI / (1 + PHI))) < 1e-8
        assert abs(K[0][0, 0] + 0.6180339887) < 1e-8

    def test_k_invariant_to_coupling_noise_and_family(self, rng):
        """Certainty equivalence: K depends only on (A, B, Q, R, T)."""
        base = scalar_tree_spec(Rt=0.5, So=0.5, W=1.0, T=4)
        K0, _ = solve_k_p(base, 4)
        variants = [
            scalar_tree_spec(Rt=0.9, So=0.5, W=1.0, T=4),
            scalar_tree_spec(Rt=0.5, So=0.1, W=1.0, T=4),
            scalar_tree_spec(Rt=0.5, So=0.5, W=3.0, T=4),
            scalar_tree_spec(Rt=0.5, So=0.5, W=1.0, T=4, family="uniform"),
        ]
        for v in variants:
            Kv, _ = solve_k_p(v, 4)
            for a, b in zip(K0, Kv):
                assert np.array_equal(a, b)

    def test_blocked_dynamics_rejected_by_every_tree_entry(self):
        """Tree-class solvers and pricers read one (A, B) for every agent;
        coupled dynamics raise ValueError naming the need, not
        AttributeError."""
        spec = coupled_delayed_spec_2dm(T=3)
        pol = solve_tree(scalar_tree_spec(T=3), 3)
        pset = TreePolicySet.from_policy(pol, 2)
        for call in (lambda: solve_k_p(spec, 3),
                     lambda: solve_infinite_tree(spec, n_dm(2)),
                     lambda: solve_coupling_gains(spec, 3, n_dm(2)),
                     lambda: predicted_cost(spec, pol),
                     lambda: exact_cost_general(spec, pset, 3)):
            with pytest.raises(ValueError, match="homogeneous dynamics"):
                call()

    def test_singular_team_pivot_raises(self):
        """B = R = 0 makes R + B' P B = 0: the recursion raises, by name."""
        with pytest.raises(RiccatiError, match="not invertible"):
            solve_k_p(scalar_tree_spec(B=0.0, R=0.0), 3)


# ---------------------------------------------------------------------------
# coupling gains


class TestCouplingGains:
    def test_no_coupling_means_zero_l(self, rng):
        spec = random_tree_spec(rng, T=3, coupled=False)
        L = solve_coupling_gains(spec, 3, n_dm(2))
        assert all(np.allclose(l, 0.0) for l in L)

    def test_single_stage_l_is_zero(self, rng):
        for _ in range(5):
            spec = random_tree_spec(rng, T=1)
            L = solve_coupling_gains(spec, 1, n_dm(2))
            assert np.linalg.norm(L[0]) < 1e-10

    def test_scalar_derived_example(self):
        """A=B=Q=R=1, R_tilde=0.5, Sigma=0.5, T=2: the exact minimizer of the
        moment-propagated cost is L = (1/9, 0)."""
        spec = scalar_tree_spec(T=2)
        L = solve_coupling_gains(spec, 2, n_dm(2))
        assert abs(L[0][0, 0] - 1.0 / 9.0) < 1e-12
        assert abs(L[1][0, 0]) < 1e-12
        ref = oracle_L(spec, 2, n_dm(2))
        assert np.allclose(np.stack(L), ref, atol=1e-9)

    def test_matches_oracle_minimizer(self, rng):
        """Random scalar and 2x2 instances, all population modes, vs the
        independent stacked-covariance quadratic minimizer."""
        for trial in range(12):
            mode = [n_dm(2), n_dm(3), mean_field(4), mean_field(2)][trial % 4]
            spec = random_tree_spec(
                rng, T=int(rng.integers(1, 5)),
                mean_field=mode.kind == "mean_field_N",
            )
            T = spec.horizon
            L = solve_coupling_gains(spec, T, mode)
            ref = oracle_L(spec, T, mode)
            scale = 1.0 + np.linalg.norm(ref)
            assert np.linalg.norm(np.stack(L) - ref) < 1e-8 * scale, \
                f"trial {trial} mode {mode.kind}"
        # pinned inputs with T >= 2 and a generic Sigma: the draws above
        # include T = 1, where the optimal L is 0 and checks nothing
        pinned = np.random.default_rng(2718)
        for mode in (n_dm(2), n_dm(3), mean_field(4), mean_field(2)):
            spec = random_tree_spec(pinned, n=2, T=3, generic_offdiag=True,
                                    mean_field=mode.kind == "mean_field_N")
            L = solve_coupling_gains(spec, 3, mode)
            assert_nondegenerate(L)
            ref = oracle_L(spec, 3, mode)
            scale = 1.0 + np.linalg.norm(ref)
            assert np.linalg.norm(np.stack(L) - ref) < 1e-8 * scale, mode.kind

    def test_matches_dense_reference(self, rng):
        """Random n, m in {1, 2, 3} and T <= 48 in all population modes, vs
        the dense stationarity system assembled from exact gradients."""
        for trial in range(8):
            mode = [n_dm(2), n_dm(int(rng.integers(2, 9))),
                    mean_field(int(rng.integers(2, 40))),
                    mean_field_limit()][trial % 4]
            spec = random_tree_spec(
                rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)),
                T=int(rng.integers(1, 49)),
                mean_field=mode.kind.startswith("mean_field"),
            )
            T = spec.horizon
            L = solve_coupling_gains(spec, T, mode)
            ref = dense_reference_L(spec, T, mode)
            scale = np.linalg.norm(ref)
            assert np.linalg.norm(np.stack(L) - ref) <= 1e-10 * scale, \
                f"trial {trial} mode {mode.kind} n={spec.n} m={spec.m} T={T}"
        # pinned inputs with T >= 2 (see test_matches_oracle_minimizer)
        pinned = np.random.default_rng(3141)
        for mode, n, m, T in ((n_dm(2), 2, 3, 17), (n_dm(5), 3, 2, 6),
                              (mean_field(7), 2, 2, 30),
                              (mean_field_limit(), 3, 1, 2)):
            spec = random_tree_spec(
                pinned, n=n, m=m, T=T, generic_offdiag=True,
                mean_field=mode.kind.startswith("mean_field"))
            L = solve_coupling_gains(spec, T, mode)
            assert_nondegenerate(L)
            ref = dense_reference_L(spec, T, mode)
            assert np.linalg.norm(np.stack(L) - ref) <= \
                1e-10 * np.linalg.norm(ref), f"mode {mode.kind} T={T}"

    def test_long_horizon_is_stationary(self, rng):
        """n = m = 4, T = 1024: 16 384 unknowns, far beyond a dense solve."""
        spec = random_tree_spec(rng, n=4, m=4, T=1024)
        L = solve_coupling_gains(spec, 1024, n_dm(2))
        K, _ = solve_k_p(spec, 1024)
        J, grad = policy_cost_gradient(spec, 1024, K, np.stack(L), n_dm(2))
        assert np.max(np.abs(grad)) <= 1e-10 * (1 + abs(J))
        assert np.linalg.norm(L[0]) > 1e-3

    def test_scipy_minimizer_agrees(self, rng):
        spec = scalar_tree_spec(T=3)
        K, _ = solve_k_p(spec, 3)
        res = minimize(lambda v: oracle_cost(spec, 3, K, v, n_dm(2)),
                       np.zeros(3), method="BFGS", tol=1e-14)
        L = solve_coupling_gains(spec, 3, n_dm(2))
        assert np.linalg.norm(np.stack(L).ravel() - res.x) < 1e-6

    def test_stationarity_finite_difference(self, rng):
        """Central finite-difference gradient of the exact cost at the
        returned gains has norm < 1e-6 (step 1e-5)."""
        spec = random_tree_spec(rng, T=3)
        mode = n_dm(2)
        pol = solve_tree(spec, 3, mode)
        Lflat = np.stack(pol.L).ravel()
        step = 1e-5
        g = np.zeros_like(Lflat)
        for i in range(Lflat.size):
            vp, vm = Lflat.copy(), Lflat.copy()
            vp[i] += step
            vm[i] -= step
            g[i] = (oracle_cost(spec, 3, pol.K, vp, mode)
                    - oracle_cost(spec, 3, pol.K, vm, mode)) / (2 * step)
        assert np.linalg.norm(g) < 1e-6

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_adjoint_gradient_vs_finite_difference(self, rng, mode):
        spec = random_tree_spec(rng, T=3, mean_field=has_qt(mode))
        L0 = rng.normal(scale=0.3, size=(3, spec.m, spec.n))
        K, _ = solve_k_p(spec, 3)
        _, grad = policy_cost_gradient(spec, 3, K, L0, mode)
        step = 1e-6
        for idx in np.ndindex(L0.shape):
            Lp, Lm = L0.copy(), L0.copy()
            Lp[idx] += step
            Lm[idx] -= step
            fd = (predicted_cost(spec, TreePolicy(mode, K, Lp))
                  - predicted_cost(spec, TreePolicy(mode, K, Lm))) / (2 * step)
            assert abs(grad[idx] - fd) < 1e-6 * (1 + abs(fd))

    def test_optimality_recursion_residual(self):
        """The solved two-agent schedule satisfies the fixed-point form
        L_t = -(R+B'P_{t+1}B)^{-1} R~ (K_t G_t + L_t Sigma
              + sum_{s>t} (stuff) ) known to characterize it; checked via the
        equivalent stationarity identity grad J(L*) = 0 exactly."""
        spec = scalar_tree_spec(T=4)
        pol = solve_tree(spec, 4, n_dm(2))
        _, grad = policy_cost_gradient(spec, 4, pol.K, np.stack(pol.L), n_dm(2))
        assert np.max(np.abs(grad)) < 1e-12

    def test_singular_system_raises(self):
        # R_tilde = -R makes I + R^{-1} R~ Sigma singular at Sigma = 1:
        # cost loses strict convexity in L and the solve must fail loudly.
        spec = scalar_tree_spec(R=1.0, Rt=-1.0, Sd=1.0, So=1.0, T=1)
        with pytest.raises(CouplingSystemError):
            solve_coupling_gains(spec, 1, n_dm(2))

    def test_singular_last_stage_raises(self):
        # As above with T = 2: the last stage's pivot is
        # (2/T) (R + R_tilde) Sigma^2 Sd = 0, so L_1 drops out of the cost.
        spec = scalar_tree_spec(R=1.0, Rt=-1.0, Sd=1.0, So=1.0, T=2)
        with pytest.raises(CouplingSystemError, match="stage 1 of 2"):
            solve_coupling_gains(spec, 2, n_dm(2))

    def test_ill_conditioned_pivot_raises_at_reference_stage(self):
        """Q = diag(1e13, 1): every pivot is positive definite, and from
        stage 6 on its condition number exceeds 1e12."""
        spec = TeamSpec(
            n_dm=2, horizon=8,
            dynamics=Homogeneous(A=[[0.9, 0.2], [0.0, 0.8]],
                                 B=[[1.0, 0.0], [0.5, 1.0]]),
            cost=CostSpec(Q=np.diag([1e13, 1.0]), R=np.eye(2),
                          R_tilde=0.5 * np.eye(2)),
            noise=NoiseSpec(sigma_w=np.eye(2),
                            init_diag=[[1.0, 0.2], [0.2, 1.0]],
                            init_offdiag=[[0.4, 0.1], [0.1, 0.2]]),
            info=Tree())
        with pytest.raises(CouplingSystemError) as ref:
            reference_solve(spec, 8, n_dm(2))
        assert "stage 6 of 8: pivot eigenvalues in [1.525e-02" in \
            str(ref.value)
        with pytest.raises(CouplingSystemError) as exc:
            solve_coupling_gains(spec, 8, n_dm(2))
        assert str(exc.value) == str(ref.value)

    def test_failed_pivot_cholesky_names_stage_and_eigenvalues(
            self, rng, monkeypatch):
        """A mode pivot whose batched Cholesky fails while its eigenvalues
        pass ``_check_pivots`` still raises, naming its stage (the first
        of the backward sweep, T - 1) and the eigenvalue range of its
        original-coordinate pivot.  Only the sweep's batched call fails;
        ``_modes``' 2-D Cholesky of Cd runs as usual."""
        T = 4
        spec = random_tree_spec(rng, n=2, m=2, T=T, generic_offdiag=True)
        cholesky = np.linalg.cholesky

        def batched_fails(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("patched")
            return cholesky(a)
        monkeypatch.setattr(np.linalg, "cholesky", batched_fails)
        p = tree_module._params(spec, n_dm(2))
        _, _, U, _, Rm = tree_module._modes(p, 1.0 / T, "unused")
        # P_T = 0, so the last stage's mode pivots are Rm
        w = tree_module._pivot_eigvals(Rm[None], U)[0]
        assert tree_module._pivot_ok(w)
        with pytest.raises(CouplingSystemError) as exc:
            solve_coupling_gains(spec, T, n_dm(2))
        assert (f"at stage {T - 1} of {T}: pivot eigenvalues in "
                f"[{w[0]:.3e}, {w[-1]:.3e}]") in str(exc.value)


# ---------------------------------------------------------------------------
# per-mode recursion against the Kronecker reference


REF_MODES = [n_dm(3), mean_field(4), mean_field_limit()]
REF_IDS = ["n_dm3", "mean_field4", "mean_field_limit"]


def bench_shaped_spec(rng, n, m, T, mean_field):
    """A tree instance shaped like the benchmark's: A with spectral radius
    0.9, positive definite R, R~ and Sd, and So a multiple of Sd."""
    A = rng.normal(size=(n, n))
    A *= 0.9 / spectral_radius(A)
    Sd = rand_psd(rng, n, ridge=0.5)
    Qt = rand_psd(rng, n, scale=0.3) if mean_field else None
    return TeamSpec(
        n_dm=2, horizon=T,
        dynamics=Homogeneous(A=A, B=rng.normal(size=(n, m))),
        cost=CostSpec(Q=rand_psd(rng, n, ridge=0.1), R=rand_pd(rng, m),
                      R_tilde=rand_psd(rng, m, scale=0.3, ridge=0.2),
                      Q_tilde=Qt),
        noise=NoiseSpec(sigma_w=rand_psd(rng, n, scale=0.5, ridge=0.05),
                        init_diag=Sd,
                        init_offdiag=float(rng.uniform(0.1, 0.45)) * Sd),
        info=MeanFieldTree() if mean_field else Tree(),
    )


def rel_err(x, ref):
    return float(np.linalg.norm(x - ref)) / float(np.linalg.norm(ref))


class TestKroneckerReference:
    @pytest.mark.parametrize("mode", REF_MODES, ids=REF_IDS)
    @pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("T", [1, 2, 32, 128])
    def test_matches_on_bench_shaped_specs(self, mode, n, m, T):
        spec = bench_shaped_spec(np.random.default_rng(1000 * T + 10 * n + m),
                                 n, m, T, mean_field=mode.kind != "n_dm")
        pol = solve_tree(spec, T, mode)
        K, P, L = reference_solve(spec, T, mode)
        assert rel_err(solve_k_p(spec, T)[1], P) <= 1e-13
        if T == 1:          # K and the optimal L are exactly 0
            assert np.all(pol.K == 0.0) and np.all(pol.L == 0.0)
        else:
            assert rel_err(pol.K, K) <= 1e-13
            assert_nondegenerate(L)
            assert rel_err(pol.L, L) <= 1e-12

    @pytest.mark.parametrize("mode", REF_MODES, ids=REF_IDS)
    def test_cost_matches_on_general_offdiag(self, mode):
        """With So not a multiple of Sd, and Sd as ill-conditioned as 1e6,
        the two schedules can differ entry by entry far above rounding,
        since both are rounded minimizers of an ill-conditioned quadratic;
        their exact costs agree to rounding, and the per-mode schedule is
        at least as stationary."""
        rng = np.random.default_rng(4242)
        for trial in range(6):
            n, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            spec = random_tree_spec(rng, n=n, m=m, T=int(rng.integers(2, 40)),
                                    mean_field=mode.kind != "n_dm",
                                    generic_offdiag=True)
            if trial % 2:
                V, _ = np.linalg.qr(rng.normal(size=(n, n)))
                Sd = (V * np.logspace(0, -6, n)) @ V.T
                F = np.linalg.cholesky(Sd)
                V, _ = np.linalg.qr(rng.normal(size=(n, n)))
                So = F @ (V * rng.uniform(0.1, 0.45, n)) @ V.T @ F.T
                spec = replace(spec, noise=replace(spec.noise, init_diag=Sd,
                                                   init_offdiag=So))
            T = spec.horizon
            pol = solve_tree(spec, T, mode)
            K, _, L = reference_solve(spec, T, mode)
            assert_nondegenerate(L)
            J, g = policy_cost_gradient(spec, T, pol.K, pol.L, mode)
            J_ref, g_ref = policy_cost_gradient(spec, T, K, L, mode)
            tol = 1e-12 * (1 + abs(J))
            assert abs(J - J_ref) <= tol, f"trial {trial}"
            assert np.linalg.norm(g) <= \
                2 * np.linalg.norm(g_ref) + 0.1 * tol, f"trial {trial}"

    def test_singular_offdiag_gain_raises_at_last_stage(self):
        """A singular Sigma makes Cd singular and the last pivot singular."""
        spec = TeamSpec(
            n_dm=2, horizon=8,
            dynamics=Homogeneous(A=0.9 * np.eye(2), B=np.eye(2)),
            cost=CostSpec(Q=np.eye(2), R=np.eye(2), R_tilde=0.5 * np.eye(2)),
            noise=NoiseSpec(sigma_w=np.eye(2), init_diag=np.eye(2),
                            init_offdiag=np.diag([0.5, 0.0])),
            info=Tree())
        with pytest.raises(CouplingSystemError) as ref:
            reference_solve(spec, 8, n_dm(2))
        with pytest.raises(CouplingSystemError, match="stage 7 of 8") as exc:
            solve_coupling_gains(spec, 8, n_dm(2))
        assert str(exc.value) == str(ref.value)

    def test_sweep_stops_at_first_indefinite_stage(self):
        """So < 0 makes the last pivot negative, and Q~ = 1e306 with A = 10
        would overflow one stage earlier: the recursion raises where the
        reference does without evaluating that stage."""
        spec = scalar_mf_spec(A=10.0, Rt=3.0, Qt=1e306, So=-0.5, T=2)
        with pytest.raises(CouplingSystemError) as ref:
            reference_solve(spec, 2, mean_field(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CouplingSystemError,
                               match="stage 1 of 2") as exc:
                solve_coupling_gains(spec, 2, mean_field(4))
        assert str(exc.value) == str(ref.value)


class TestIndependentInitialStates:
    """init_offdiag = 0 makes Sigma = 0 and the coupling statistic
    c^i = alpha Sigma x_0^i = 0, so every L costs the same: L = 0 is
    exact, and K, P and the cost are those of the spec without R~ and Q~."""

    @staticmethod
    def spec_pair(rng, mean_field):
        spec = random_tree_spec(rng, n=2, m=2, T=5, mean_field=mean_field)
        spec = replace(spec, noise=replace(spec.noise,
                                           init_offdiag=np.zeros((2, 2))))
        bare = replace(spec, cost=replace(spec.cost, R_tilde=None,
                                          Q_tilde=None))
        return spec, bare

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_finite_horizon(self, rng, mode):
        spec, bare = self.spec_pair(rng, has_qt(mode))
        pol, ref = solve_tree(spec, 5, mode), solve_tree(bare, 5, mode)
        if mode.kind == "mean_field_limit":
            assert np.array_equal(meanfield_limit_policy(spec, 5).L, pol.L)
        assert np.all(pol.L == 0.0)
        assert np.array_equal(pol.K, ref.K)
        assert np.array_equal(solve_k_p(spec, 5)[1], solve_k_p(bare, 5)[1])
        assert predicted_cost(spec, pol) == \
            pytest.approx(predicted_cost(bare, ref), rel=1e-12)

    def test_infinite_horizon(self, rng):
        spec, bare = self.spec_pair(rng, False)
        pol, ref = solve_infinite_tree(spec), solve_infinite_tree(bare)
        assert pol.z0.shape == (0,) and pol.horizon_used == 0
        assert np.all(pol.L(5) == 0.0)
        assert np.array_equal(pol.K, ref.K) and np.array_equal(pol.P, ref.P)
        assert pol.average_cost == ref.average_cost


# ---------------------------------------------------------------------------
# predicted cost


class TestPredictedCost:
    def test_uncoupled_reduces_to_two_lqr(self, rng):
        spec = random_tree_spec(rng, T=4, coupled=False)
        pol = solve_tree(spec, 4, n_dm(2))
        K, P = solve_k_p(spec, 4)
        W = 0.5 * (spec.noise.sigma_w + spec.noise.sigma_w.T)
        Sd = 0.5 * (spec.noise.init_diag + spec.noise.init_diag.T)
        lqr = (2.0 / 4) * (np.trace(P[0] @ Sd)
                           + sum(np.trace(P[t + 1] @ W) for t in range(4)))
        assert predicted_cost(spec, pol) == pytest.approx(lqr, rel=1e-10)

    def test_single_stage_cost(self, rng):
        spec = random_tree_spec(rng, T=1)
        pol = solve_tree(spec, 1, n_dm(2))
        Sd = 0.5 * (spec.noise.init_diag + spec.noise.init_diag.T)
        expect = 2.0 * np.trace(0.5 * (spec.cost.Q + spec.cost.Q.T) @ Sd)
        assert predicted_cost(spec, pol) == pytest.approx(expect, rel=1e-10)

    def test_scalar_example_value(self):
        spec = scalar_tree_spec(T=2)
        pol = solve_tree(spec, 2)
        assert predicted_cost(spec, pol) == pytest.approx(2.555555555556,
                                                             abs=1e-9)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_matches_oracle_propagation(self, rng, mode):
        specs = [random_tree_spec(rng, mean_field=has_qt(mode))
                 for _ in range(6)]
        # a generic So: Sigma is not symmetric, so Sigma and Sigma' differ
        # (T > 1, as at T = 1 the optimal L is 0 and Sigma drops out)
        specs.append(random_tree_spec(rng, n=2, T=3, mean_field=has_qt(mode),
                                      generic_offdiag=True))
        for spec in specs:
            T = spec.horizon
            pol = solve_tree(spec, T, mode)
            ref = oracle_cost(spec, T, pol.K, np.stack(pol.L), mode)
            assert predicted_cost(spec, pol) == pytest.approx(ref, rel=1e-8)

    def test_identity_decomposition_is_exact(self, rng):
        for _ in range(6):
            spec = random_tree_spec(rng)
            pol = solve_tree(spec, spec.horizon, n_dm(2))
            v = closed_form_cost_variants(spec, pol)
            assert abs(v["identity"] - v["exact"]) < 1e-12 * (1 + abs(v["exact"]))
            assert v["best_variant"] in ("literal A^{t}", "literal A^{t-1}")

    def test_horizon_mismatch_rejected(self):
        """A policy whose K and L schedules differ in length is refused."""
        spec = scalar_tree_spec(T=2)
        pol = solve_tree(spec, 2)
        with pytest.raises(ValueError, match="K horizon 2 differs"):
            predicted_cost(spec, replace(pol, L=pol.L[:1]))

    def test_exchanging_identical_policies_is_neutral(self, rng):
        """Exchangeability at the policy level: with both agents running the
        same schedule, relabeling agents cannot change the exact cost; and
        the cost is symmetric in (Sd, So) pair structure."""
        spec = random_tree_spec(rng, T=3)
        pol = solve_tree(spec, 3, n_dm(2))
        pset = TreePolicySet.from_policy(pol, 2)
        c0 = exact_cost_general(spec, pset, 3)
        c1 = exact_cost_general(spec, pset.permuted([1, 0]), 3)
        assert c0 == pytest.approx(c1, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_exact_cost_is_the_stacked_form(self, N):
        """At every N a Tree spec's exact cost, priced as one pair and as N
        agents, is the stacked form sum_i (x^i' Q x^i
        + u^i' R u^i) + sum_{i != j} u^i' R~ u^j that the delayed class
        prices, each ordered pair weighed once."""
        spec = random_tree_spec(np.random.default_rng(7), T=3, n_dm=N)
        pol = solve_tree(spec, 3)
        assert_nondegenerate(pol.L)
        _, _, _, alpha = cost_weights(pol.mode)
        ref = stacked_cost(spec, 3, pol.K, np.stack(pol.L), alpha)
        pset = TreePolicySet.from_policy(pol, N)
        for J in (predicted_cost(spec, pol),
                  exact_cost_general(spec, pset, 3)):
            assert J == pytest.approx(ref, rel=1e-12, abs=0)



# ---------------------------------------------------------------------------
# per-agent pricer against the stacked loop


def pricer_profiles(rng):
    """24 random asymmetric profiles (spec, mode, K, L): N from 2 to 8,
    n, m <= 2, T <= 6, n_dm and mean_field modes (R~ and Q~ nonzero), a
    generic So (Sigma not symmetric) and an N = 2 spec with
    init_offdiag = -0.3 init_diag."""
    out = []
    for k in range(24):
        N = int(rng.integers(2, 9)) if k % 3 else 2
        mf, generic = k % 2 == 1, k % 4 == 2
        spec = random_tree_spec(rng, n=2 if generic else None,
                                T=int(rng.integers(2, 7)), n_dm=N,
                                mean_field=mf, generic_offdiag=generic)
        if k == 3:
            spec = replace(spec, noise=replace(
                spec.noise, init_offdiag=-0.3 * spec.noise.init_diag))
        K, L = rng.normal(scale=0.4, size=(2, N, spec.horizon, spec.m,
                                           spec.n))
        out.append((spec, mean_field(N) if mf else n_dm(N), K, L))
    return out


class TestPerAgentPricer:
    def test_matches_stacked_reference(self, rng):
        """tree._price's cost agrees with the stacked 2Nn loop's to 1e-12
        relative, every entry's gradient g to 1e-12 (1 + |J|) and its
        curvature h to 1e-12 relative."""
        profiles = pricer_profiles(rng)
        assert sum(len(K) >= 3 for _, _, K, _ in profiles) >= 8
        for spec, mode, K, L in profiles:
            p = tree_module._params(spec, mode)
            J, g, h = tree_module._price(p, K, L, want_grad=True)
            J_ref, g_ref, h_ref = stacked_price(
                p, K, L, *spread_weights(p.a, p.b, p.q, len(K)))
            assert tree_module._price(p, K, L)[0] == J
            assert abs(J - J_ref) <= 1e-12 * abs(J_ref)
            np.testing.assert_allclose(g, g_ref, rtol=0,
                                       atol=1e-12 * (1.0 + abs(J_ref)))
            np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", [n_dm(2), mean_field(2),
                                      mean_field_limit()],
                             ids=["n_dm", "mean_field", "mean_field_limit"])
    def test_pair_cost_and_gradient_match_stacked_pair(self, rng, mode):
        """_cost_and_grad's J and L-gradient, on a batch of schedules,
        agree with the stacked two-agent loop's to 1e-12."""
        for _ in range(4):
            spec = random_tree_spec(rng, T=int(rng.integers(2, 6)),
                                    mean_field=has_qt(mode),
                                    generic_offdiag=True, n=2)
            p = tree_module._params(spec, mode)
            T, m, n = spec.horizon, spec.m, spec.n
            K = rng.normal(scale=0.4, size=(T, m, n))
            L = rng.normal(scale=0.4, size=(3, T, m, n))
            J, grad = tree_module._cost_and_grad(p, K, L)
            for Jk, gk, Lk in zip(J, grad, L):
                J_ref, g_ref = pair_cost_and_grad(p, K, Lk)
                assert abs(Jk - J_ref) <= 1e-12 * abs(J_ref)
                np.testing.assert_allclose(gk, g_ref, rtol=0,
                                           atol=1e-12 * (1.0 + abs(J_ref)))


# ---------------------------------------------------------------------------
# infinite horizon


def rotation_spec(rng, th=1.3, rho=0.3):
    """Two agents, A = 0.84 times a rotation by th and a small B, so the
    closed loop barely moves and the coupling schedule decays like 0.84^t;
    So = rho Sd, as in the benchmark's ``slow_tree_spec``."""
    A = 0.84 * np.array([[np.cos(th), -np.sin(th)],
                         [np.sin(th), np.cos(th)]])
    Sd = rand_pd(rng, 2)
    return TeamSpec(
        n_dm=2, horizon=8,
        dynamics=Homogeneous(A=A, B=0.02 * rng.normal(size=(2, 2))),
        cost=CostSpec(Q=rand_pd(rng, 2), R=rand_pd(rng, 2),
                      R_tilde=rand_pd(rng, 2, scale=0.3)),
        noise=NoiseSpec(sigma_w=0.5 * np.eye(2), init_diag=Sd,
                        init_offdiag=rho * Sd),
        info=Tree(),
    )


def head_specs(rng):
    """40 seeded random specs (n, m <= 3, two or three agents) and the
    slowly decaying 0.84-rotation spec."""
    draw = np.random.default_rng(20261018)
    specs = [random_tree_spec(draw, n=int(draw.integers(1, 4)),
                              m=int(draw.integers(1, 4)),
                              n_dm=int(draw.integers(2, 4)))
             for _ in range(40)]
    return specs + [rotation_spec(rng)]


def reference_specs(family, rng):
    if family == "head":
        return head_specs(rng)
    if family == "tiny_b":
        return [scalar_tree_spec(B=0.003)]
    draw = np.random.default_rng(2026)
    if family == "bench":
        # shaped like the benchmark's slow_tree_spec
        return [rotation_spec(draw, th=draw.uniform(0.3, 2.8),
                              rho=draw.uniform(0.1, 0.45)) for _ in range(10)]
    # So not a multiple of Sd, so the modes' weights differ
    return [random_tree_spec(draw, n=int(draw.integers(2, 4)),
                             m=int(draw.integers(1, 4)), generic_offdiag=True)
            for _ in range(10)]


def last_live_stage(L):
    """The last stage t with |L_t| >= 1e-8, -1 if there is none."""
    live = np.flatnonzero(~(np.linalg.norm(L, axis=(1, 2)) < 1e-8))
    return int(live[-1]) if live.size else -1


def reference_schedule_error(spec):
    """The Kronecker reference's CouplingSystemError for a spec whose
    stationary coupling sweep fails."""
    sol = dare_solve(spec.dynamics.A, spec.dynamics.B, spec.cost.Q,
                     spec.cost.R)
    p = tree_module._params(spec, n_dm(spec.n_dm))
    with pytest.raises(CouplingSystemError) as ref:
        reference_stationary_schedule(p, sol.K, 1)
    return str(ref.value)


def finite_head_gap(spec, pol):
    """Largest |L_t - L_t^(T)| over the stationary schedule, against the
    finite-horizon optimum at T = 2h + 64 for a schedule of h stages."""
    h = pol.horizon_used
    L_fin = solve_coupling_gains(spec, 2 * h + 64, pol.mode)
    return float(np.linalg.norm(pol.L(h) - L_fin[:h], axis=(1, 2)).max())


class TestInfiniteTree:
    def test_uncoupled_average_cost(self):
        spec = scalar_tree_spec(Rt=None, W=0.7, T=2)
        pol = solve_infinite_tree(spec)
        assert pol.z0.shape == (0,) and pol.horizon_used == 0
        assert np.all(pol.L(4) == 0.0)
        assert pol.average_cost == pytest.approx(2.0 * PHI * 0.7, abs=1e-7)
        assert abs(pol.K[0, 0] + 0.6180339887) < 1e-8
        assert pol.closed_loop_radius < 1.0

    def test_uncoupled_singular_initial_covariance(self):
        """Without R~ no coupling data is built, so a singular init_diag,
        which has no conditional gain, still solves: average cost
        2 phi = 1 + sqrt 5 and an empty schedule."""
        pol = solve_infinite_tree(scalar_tree_spec(Rt=None, Sd=0.0, So=0.0))
        assert pol.average_cost == pytest.approx(1.0 + np.sqrt(5.0),
                                                 abs=1e-7)
        assert pol.horizon_used == 0

    def test_coupled_l_decays(self):
        spec = scalar_tree_spec(T=2)
        pol = solve_infinite_tree(spec)
        L = pol.L(pol.horizon_used + 64)
        tail = [np.linalg.norm(l) for l in L[pol.horizon_used:]]
        assert all(v < 1e-8 for v in tail)
        assert np.linalg.norm(L[0]) > 1e-3   # head is genuinely nonzero

    def test_closed_form_matches_long_finite_head(self, rng):
        """The stationary schedule is the head of the finite-horizon optimum,
        on 40 seeded random specs (n, m <= 3, two or three agents) and on
        the slowly decaying 0.84-rotation spec."""
        for k, spec in enumerate(head_specs(rng)):
            pol = solve_infinite_tree(spec)
            assert_nondegenerate(pol.L(pol.horizon_used))
            assert finite_head_gap(spec, pol) < 1e-9, f"spec {k}"
        assert pol.horizon_used > 64

    @pytest.mark.parametrize("family",
                             ["head", "tiny_b", "bench", "general_offdiag"])
    def test_schedule_matches_kronecker_reference(self, rng, family):
        """The per-mode realization gives the unsplit Kronecker schedule to
        rounding, past its certified stage, and every stage from
        horizon_used on is below 1e-8."""
        for k, spec in enumerate(reference_specs(family, rng)):
            pol = solve_infinite_tree(spec)
            T = 2 * pol.horizon_used + 64
            L = reference_stationary_schedule(
                tree_module._params(spec, pol.mode), pol.K, T)
            assert_nondegenerate(L)
            assert pol.horizon_used > last_live_stage(L), f"spec {k}"
            assert last_live_stage(L[pol.horizon_used:]) == -1, f"spec {k}"
            assert rel_err(pol.L(T), L) <= 1e-12, f"spec {k}"

    def test_pivot_failures_match_kronecker_reference(self):
        """An indefinite R_k, and a singular Sigma, raise the reference's
        error, message included."""
        indefinite = scalar_tree_spec(R=1.0, Rt=3.0, Sd=1.0, So=-0.5)
        singular = TeamSpec(
            n_dm=2, horizon=8,
            dynamics=Homogeneous(A=0.9 * np.eye(2), B=np.eye(2)),
            cost=CostSpec(Q=np.eye(2), R=np.eye(2), R_tilde=0.5 * np.eye(2)),
            noise=NoiseSpec(sigma_w=np.eye(2), init_diag=np.eye(2),
                            init_offdiag=np.diag([0.5, 0.0])),
            info=Tree())
        for spec in (indefinite, singular):
            with pytest.raises(CouplingSystemError,
                               match="last stage of every horizon") as exc:
                solve_infinite_tree(spec)
            assert str(exc.value) == reference_schedule_error(spec)

    def test_tiny_b_solves(self):
        """A = Q = R = 1, R~ = 0.5, B = 0.003: the coupling loop decays like
        0.997^t, so the schedule runs to thousands of stages."""
        spec = scalar_tree_spec(B=0.003)
        pol = solve_infinite_tree(spec)
        h = pol.horizon_used
        L = pol.L(h + 64)
        assert_nondegenerate(L, floor=0.1)
        assert h > 5000
        assert all(np.linalg.norm(l) < 1e-8 for l in L[h:])
        assert finite_head_gap(spec, pol) < 1e-9

    def test_indefinite_coupling_weight_raises_like_finite_sweep(self):
        """So < 0 with R Sd + R~ So < 0 makes R_k negative.  R_k / T is the
        last pivot of every finite sweep, so no horizon is strictly convex
        in L, and neither is the infinite one."""
        spec = scalar_tree_spec(R=1.0, Rt=3.0, Sd=1.0, So=-0.5)
        assert validate(spec).ok
        with pytest.raises(CouplingSystemError, match="stage 31 of 32"):
            solve_coupling_gains(spec, 32, n_dm(2))
        with pytest.raises(CouplingSystemError,
                           match="last stage of every horizon"):
            solve_infinite_tree(spec)

    def test_singular_state_weight_matches_finite_sweep(self, rng):
        """Q = 0 makes Q_k = 0: with A stable, K = 0 and L = 0 at every
        horizon.  A rank-one Q makes Q_k singular, with a nonzero schedule."""
        spec = scalar_tree_spec(A=0.9, Q=0.0)
        pol = solve_infinite_tree(spec)
        L_fin = solve_coupling_gains(spec, 64, n_dm(2))
        assert np.all(pol.L(64) == 0.0)
        assert np.all(np.stack(L_fin) == 0.0)
        spec = rotation_spec(rng)
        spec = replace(spec, cost=replace(spec.cost, Q=np.diag([1.0, 0.0])))
        pol = solve_infinite_tree(spec)
        assert_nondegenerate(pol.L(pol.horizon_used))
        assert finite_head_gap(spec, pol) < 1e-9

    def test_value_cesaro_convergence(self):
        """(1/T) sum_t ||P_t^{(T)} - P_dare|| shrinks as T doubles."""
        spec = scalar_tree_spec(T=2)
        target = dare_solve(spec.dynamics.A, spec.dynamics.B,
                            spec.cost.Q, spec.cost.R).P
        devs = []
        for T in (25, 50, 100, 200):
            _, P = solve_k_p(spec, T)
            devs.append(np.mean([np.linalg.norm(P[t] - target)
                                 for t in range(T)]))
        assert devs[-1] < devs[0] / 4
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_mode_restriction(self):
        spec = scalar_mf_spec()
        with pytest.raises(ValueError):
            solve_infinite_tree(spec, mode=mean_field_limit())


# ---------------------------------------------------------------------------
# mean-field limit


class TestMeanFieldLimit:
    def test_uncoupled_limit_is_zero(self, rng):
        spec = random_tree_spec(rng, T=3, coupled=False, mean_field=True)
        pol = meanfield_limit_policy(spec, 3)
        assert all(np.allclose(l, 0.0) for l in pol.L)

    def test_limit_mode_and_shapes(self):
        spec = scalar_mf_spec(T=3)
        pol = meanfield_limit_policy(spec, 3)
        assert pol.mode.kind == "mean_field_limit"
        assert len(pol.L) == 3 and len(pol.K) == 3

    def test_limit_matches_large_n_solution(self):
        spec = scalar_mf_spec(T=3)
        pol = meanfield_limit_policy(spec, 3)
        L_big = solve_coupling_gains(spec, 3, mean_field(300))
        for a, b in zip(pol.L, L_big):
            assert np.linalg.norm(a - b) < 1e-7


class TestTreeInformation:
    @pytest.mark.parametrize("solve", [
        lambda spec: solve_tree(spec),
        lambda spec: solve_tree(spec, 3, n_dm(2)),
        lambda spec: solve_coupling_gains(spec, 3, mean_field(2)),
        lambda spec: meanfield_limit_policy(spec, 3),
        lambda spec: solve_infinite_tree(spec),
        lambda spec: solve_infinite_tree(spec, n_dm(2)),
        lambda spec: predicted_cost(spec, TreePolicy(
            n_dm(2), np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))),
        lambda spec: exact_cost_general(spec, TreePolicySet.from_policy(
            solve_tree(scalar_tree_spec(T=3)), 2), 3),
        lambda spec: simulate(spec, TreePolicySet.from_policy(
            solve_tree(scalar_tree_spec(T=3)), 2), 3, 10, 1),
    ], ids=["solve_tree", "solve_tree-n_dm", "solve_coupling_gains",
            "meanfield_limit_policy", "solve_infinite_tree",
            "solve_infinite_tree-n_dm", "predicted_cost",
            "exact_cost_general", "simulate"])
    def test_delayed_information_refused(self, solve):
        """Every tree-class solve, price and rollout refuses a delayed
        spec, also when it is given a mode or a profile: its S and Q_tilde
        are not tree-class costs, so any number priced from it would be
        wrong."""
        spec = TeamSpec(
            n_dm=2, horizon=3, dynamics=Homogeneous(A=[[0.8]], B=[[1.0]]),
            cost=CostSpec(Q=[[1.0]], R=[[1.0]], S=[[0.3]], Q_tilde=[[0.2]]),
            noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                            init_offdiag=[[0.0]]),
            info=Delayed(delays=((0, 1), (1, 0))))
        assert validate(spec).ok
        with pytest.raises(ValueError, match="tree solver needs Tree or "
                           "MeanFieldTree information"):
            solve(spec)
