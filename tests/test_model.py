"""Spec validation, conditional gain, and structural invariants."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlqg.model import (
    Blocked,
    CostSpec,
    Delayed,
    DimensionError,
    Homogeneous,
    NoiseSpec,
    SingularCovarianceError,
    TeamSpec,
    Tree,
    conditional_gain,
    validate,
)

from conftest import (
    coupled_delayed_spec_2dm,
    rand_pd,
    rand_psd,
    scalar_tree_spec,
)


def check_names(report):
    return {c.name: c.passed for c in report.checks}


ONE, TWO = [[1.0]], np.eye(2)
SCALAR = scalar_tree_spec()       # n = m = 1, two agents

# (id, construction, exception type, words naming the field)
INPUT_ERRORS = [
    ("A-not-square", lambda: Homogeneous(A=np.ones((1, 2)), B=ONE),
     DimensionError, "A must be square"),
    ("B-rows", lambda: Homogeneous(A=ONE, B=np.ones((2, 1))),
     DimensionError, "B row count"),
    ("A_blocks-grid", lambda: Blocked(A_blocks=[[ONE, ONE]], B_blocks=[[ONE]]),
     DimensionError, "A_blocks"),
    ("A_blocks-empty", lambda: Blocked(A_blocks=[], B_blocks=[]),
     DimensionError, "A_blocks"),
    ("B_blocks-grid", lambda: Blocked(A_blocks=[[ONE]],
                                      B_blocks=[[ONE], [ONE]]),
     DimensionError, "B_blocks"),
    ("A-block-shape", lambda: Blocked(A_blocks=[[ONE, ONE], [ONE, TWO]],
                                      B_blocks=[[ONE, ONE], [ONE, ONE]]),
     DimensionError, "A blocks"),
    ("B-block-shape", lambda: Blocked(A_blocks=[[ONE, ONE], [ONE, ONE]],
                                      B_blocks=[[ONE, ONE], [ONE, [[1., 2.]]]]),
     DimensionError, "B blocks"),
    ("noise-family", lambda: NoiseSpec(sigma_w=ONE, init_diag=ONE,
                                       init_offdiag=ONE, family="cauchy"),
     ValueError, "noise family 'cauchy'"),
    ("init_offdiag-shape", lambda: conditional_gain(NoiseSpec(
        sigma_w=ONE, init_diag=ONE, init_offdiag=TWO)),
     DimensionError, "init_offdiag"),
    ("delays-grid", lambda: Delayed(delays=((0, 1),)),
     DimensionError, "delays"),
    ("n_dm", lambda: replace(SCALAR, n_dm=0), DimensionError, "n_dm"),
    ("horizon", lambda: replace(SCALAR, horizon=0), DimensionError,
     "horizon"),
    ("blocked-grid", lambda: replace(SCALAR, dynamics=Blocked(
        A_blocks=[[ONE]], B_blocks=[[ONE]])),
     DimensionError, "blocked dynamics grid must be n_dm x n_dm"),
    ("R", lambda: replace(SCALAR, cost=CostSpec(Q=ONE, R=TWO)),
     DimensionError, "R must be m x m"),
    ("Q_tilde", lambda: replace(SCALAR, cost=CostSpec(Q=ONE, R=ONE,
                                                      Q_tilde=TWO)),
     DimensionError, "Q_tilde"),
    ("S", lambda: replace(SCALAR, cost=CostSpec(Q=ONE, R=ONE, S=TWO)),
     DimensionError, "S must be n x m"),
    ("sigma_w", lambda: replace(SCALAR, noise=NoiseSpec(
        sigma_w=TWO, init_diag=ONE, init_offdiag=ONE)),
     DimensionError, "sigma_w"),
    ("delay-matrix", lambda: replace(SCALAR, info=Delayed(delays=((0,),))),
     DimensionError, "delay matrix must be n_dm x n_dm"),
]


@pytest.mark.parametrize("make, exc, named", [row[1:] for row in INPUT_ERRORS],
                         ids=[row[0] for row in INPUT_ERRORS])
def test_input_error_names_its_field(make, exc, named):
    with pytest.raises(exc) as info:
        make()
    assert info.type is exc
    assert named in str(info.value)


class TestValidate:
    def test_scalar_spec_all_pass(self):
        spec = scalar_tree_spec()
        rep = validate(spec)
        assert rep.ok, rep.summary()

    def test_joint_initial_covariance_bound(self):
        spec = scalar_tree_spec(Sd=1.0, So=1.5)
        rep = validate(spec)
        names = check_names(rep)
        assert names["joint initial covariance PSD"] is False
        assert not rep.ok

    def test_r_not_positive_definite(self):
        spec = scalar_tree_spec(R=0.0)
        names = check_names(validate(spec))
        assert names["R positive definite"] is False

    def test_sparsity_line_names_the_first_bad_block(self):
        """validate applies the delayed solvers' sparsity rule: unlinked,
        the coupled pair fails one line naming A^{12}, its first block
        outside the pattern; linked, or with homogeneous dynamics, it
        passes; with a delay of 2 the rule has no effective delays to read
        and its line is left out."""
        INF = np.inf
        linked = coupled_delayed_spec_2dm()
        unlinked = replace(linked, info=Delayed(((0, INF), (INF, 0))))
        rule = "sparsity: dynamics within the delay pattern"
        assert check_names(validate(linked))[rule] is True
        assert [c.name for c in validate(unlinked).failed()] == [
            "sparsity: A^{12} must be zero (effective delay inf > 1)"]
        homogeneous = replace(unlinked, dynamics=Homogeneous(A=ONE, B=ONE))
        assert check_names(validate(homogeneous))[rule] is True
        too_late = validate(replace(linked, info=Delayed(((0, 2), (1, 0)))))
        assert [c.name for c in too_late.failed()] == [
            "delays at most one step"]
        assert not any(c.name.startswith("sparsity") for c in too_late.checks)

    def test_dimension_mismatch_is_hard_error(self):
        with pytest.raises(DimensionError):
            TeamSpec(
                n_dm=2, horizon=2,
                dynamics=Homogeneous(A=[[1.0]], B=[[1.0]]),
                cost=CostSpec(Q=np.eye(2), R=[[1.0]]),
                noise=NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                                init_offdiag=[[0.0]]),
                info=Tree(),
            )

    def test_asymmetric_q_flagged(self):
        spec2 = TeamSpec(
            n_dm=2, horizon=2,
            dynamics=Homogeneous(A=np.eye(2), B=np.eye(2)),
            cost=CostSpec(Q=[[1.0, 0.5], [0.0, 1.0]], R=np.eye(2)),
            noise=NoiseSpec(sigma_w=np.eye(2), init_diag=np.eye(2),
                            init_offdiag=np.zeros((2, 2))),
            info=Tree(),
        )
        names = check_names(validate(spec2))
        assert names["Q symmetric"] is False

    def test_absent_blocks_are_zeros_and_zero_blocks_are_absent(self):
        """An absent R_tilde, Q_tilde or S is a float zero matrix sized from
        Q and R, and validate lists the same checks for it as for an
        explicit all-zero block; a block of the wrong shape still raises."""
        n, m = 2, 3
        cost = CostSpec(Q=np.eye(n), R=np.eye(m))
        for M, shape in ((cost.R_tilde, (m, m)), (cost.Q_tilde, (n, n)),
                         (cost.S, (n, m))):
            assert M.dtype == float and M.shape == shape and not M.any()

        def spec(**blocks):
            return TeamSpec(
                n_dm=2, horizon=2,
                dynamics=Homogeneous(A=np.eye(n), B=np.ones((n, m))),
                cost=CostSpec(Q=np.eye(n), R=np.eye(m), **blocks),
                noise=NoiseSpec(sigma_w=np.eye(n), init_diag=np.eye(n),
                                init_offdiag=np.zeros((n, n))),
                info=Tree())

        zeros = dict(R_tilde=[[0.0] * m] * m, Q_tilde=[[-0.0] * n] * n,
                     S=[[0.0] * m] * n)
        assert validate(spec(**zeros)).checks == validate(spec()).checks
        assert "R_tilde symmetric" not in check_names(validate(spec()))
        with pytest.raises(DimensionError, match="R_tilde must be m x m"):
            spec(R_tilde=np.eye(n))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_psd_rules_match_eigenvalues(self, seed):
        """Random PSD / non-PSD blocks: each named rule fires iff the
        eigenvalue criterion it encodes is violated."""
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 4))
        Q = rand_psd(g, n) if g.random() < 0.5 else sym_ind(g, n)
        R = rand_pd(g, n) if g.random() < 0.5 else sym_ind(g, n)
        Sd = rand_pd(g, n)
        So = float(g.uniform(-1.5, 1.5)) * Sd
        spec = TeamSpec(
            n_dm=2, horizon=2,
            dynamics=Homogeneous(A=np.eye(n), B=np.eye(n)),
            cost=CostSpec(Q=Q, R=R),
            noise=NoiseSpec(sigma_w=rand_psd(g, n), init_diag=Sd,
                            init_offdiag=So),
            info=Tree(),
        )
        names = check_names(validate(spec))
        tol = 1e-9
        assert names["Q positive semidefinite"] == bool(
            np.linalg.eigvalsh(Q)[0] >= -tol * (1 + abs(np.linalg.eigvalsh(Q)[-1])))
        assert names["R positive definite"] == bool(np.linalg.eigvalsh(R)[0] > 0)
        joint = np.block([[Sd, So], [So, Sd]])
        assert names["joint initial covariance PSD"] == bool(
            np.linalg.eigvalsh(joint)[0]
            >= -tol * (1 + abs(np.linalg.eigvalsh(joint)[-1])))


def sym_ind(g, n):
    M = g.normal(size=(n, n))
    return 0.5 * (M + M.T)


class TestConditionalGain:
    def test_scalar_division(self):
        noise = NoiseSpec(sigma_w=[[1.0]], init_diag=[[1.0]],
                          init_offdiag=[[0.5]])
        assert np.allclose(conditional_gain(noise), [[0.5]])

    def test_independent_initials_give_zero(self):
        noise = NoiseSpec(sigma_w=[[1.0]], init_diag=[[2.0]],
                          init_offdiag=[[0.0]])
        assert np.array_equal(conditional_gain(noise), [[0.0]])

    def test_diagonal_inverse(self):
        noise = NoiseSpec(sigma_w=np.eye(2),
                          init_diag=[[2.0, 0.0], [0.0, 4.0]],
                          init_offdiag=[[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(conditional_gain(noise),
                           [[0.5, 0.0], [0.0, 0.25]])

    def test_singular_diag_rejected_with_advice(self):
        noise = NoiseSpec(sigma_w=np.eye(2),
                          init_diag=[[1.0, 0.0], [0.0, 0.0]],
                          init_offdiag=np.zeros((2, 2)))
        with pytest.raises(SingularCovarianceError, match="ridge"):
            conditional_gain(noise)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gain_solves_defining_equation(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 4))
        sd = rand_pd(g, n)
        so = 0.4 * rand_psd(g, n)
        noise = NoiseSpec(sigma_w=np.eye(n), init_diag=sd, init_offdiag=so)
        S = conditional_gain(noise)
        assert np.linalg.norm(S @ sd - so) < 1e-10 * (1 + np.linalg.norm(so))
