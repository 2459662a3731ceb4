"""Riccati step, DARE by doubling, and PBH stabilizability tests."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlqg import riccati
from teamlqg.cli import EXIT_NUMERICAL, main
from teamlqg.linalg import is_psd, spectral_radius
from teamlqg.riccati import (
    ConvergenceError,
    RiccatiError,
    dare_solve,
    is_detectable,
    is_stabilizable,
    riccati_step,
    stein_solve,
)

from conftest import rand_pd, rand_psd

PHI = (1.0 + np.sqrt(5.0)) / 2.0


class TestRiccatiStep:
    def test_terminal_stage_zero_gain(self):
        P, K = riccati_step([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert np.array_equal(K, [[0.0]])
        assert np.array_equal(P, [[1.0]])

    def test_scalar_hand_evaluation(self):
        P, K = riccati_step([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert np.allclose(K, [[-0.5]])
        assert np.allclose(P, [[1.5]])

    def test_zero_a_gives_q(self, rng):
        n = 2
        Q, R, Pn = rand_psd(rng, n), rand_pd(rng, n), rand_psd(rng, n)
        P, K = riccati_step(np.zeros((n, n)), np.eye(n), Q, R, Pn)
        assert np.allclose(P, 0.5 * (Q + Q.T))
        assert np.allclose(K, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_preserves_symmetry_and_psd(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 4))
        m = int(g.integers(1, 4))
        A = g.normal(size=(n, n))
        B = g.normal(size=(n, m))
        P, _ = riccati_step(A, B, rand_psd(g, n), rand_pd(g, m), rand_psd(g, n))
        assert np.array_equal(P, P.T)
        assert is_psd(P)

    def test_singular_pivot_raises(self):
        """B = R = 0: R + B' P B = 0 has no inverse."""
        with pytest.raises(RiccatiError, match="not invertible"):
            riccati_step([[1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]])

    def test_monotone_from_zero(self, rng):
        """Iterating from P=0 is nondecreasing in the PSD order."""
        n, m = 2, 1
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        Q, R = rand_psd(rng, n), rand_pd(rng, m)
        P = np.zeros((n, n))
        for _ in range(30):
            P_next, _ = riccati_step(A, B, Q, R, P)
            assert np.linalg.eigvalsh(P_next - P)[0] >= -1e-9
            P = P_next


class TestDare:
    def test_zero_a_fixed_point_is_q(self):
        sol = dare_solve([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(sol.P[0, 0] - 1.0) < 1e-9

    def test_golden_ratio(self):
        sol = dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(sol.P[0, 0] - PHI) < 1e-8
        assert abs(sol.K[0, 0] - (-PHI / (1.0 + PHI))) < 1e-8

    def test_zero_cost_stable_a(self):
        sol = dare_solve([[0.5]], [[1.0]], [[0.0]], [[1.0]])
        assert abs(sol.P[0, 0]) < 1e-9

    def test_unstabilizable_rejected(self):
        with pytest.raises(RiccatiError, match="stabilizable"):
            dare_solve([[2.0]], [[0.0]], [[1.0]], [[1.0]])

    def test_undetectable_rejected(self):
        """Q = 0 leaves the unstable mode of A = 2 unobserved."""
        with pytest.raises(RiccatiError, match="not detectable"):
            dare_solve([[2.0]], [[1.0]], [[0.0]], [[1.0]])

    def test_fixed_point_and_stability(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            A = rng.normal(size=(n, n))
            A *= rng.uniform(0.5, 1.5) / spectral_radius(A)
            B = rng.normal(size=(n, m))
            Q = rand_pd(rng, n)
            R = rand_pd(rng, m)
            sol = dare_solve(A, B, Q, R)
            P_step, _ = riccati_step(A, B, Q, R, sol.P)
            assert np.linalg.norm(P_step - sol.P) < 1e-8
            assert spectral_radius(A + B @ sol.K) < 1.0
            assert is_psd(sol.P)
            # independent oracle
            P_ref = scipy.linalg.solve_discrete_are(A, B, 0.5 * (Q + Q.T),
                                                    0.5 * (R + R.T))
            assert np.linalg.norm(sol.P - P_ref) < 1e-10 * (1 + np.linalg.norm(P_ref))

    @pytest.mark.parametrize("a, b", [(1.0, 0.001), (1.0, 0.002), (1.0, 0.003),
                                      (1.0, 0.005), (1.0, 0.01), (1.0, 0.03),
                                      (2.0, 1e-7)])
    def test_scalar_closed_form_near_uncontrollable(self, a, b):
        """With Q = R = 1 the DARE is b^2 P^2 + (1 - a^2 - b^2) P - 1 = 0.
        scipy is not an oracle here: at a = 2, b = 1e-7 it is 3e-7 off."""
        c = 1.0 - a * a - b * b
        root = np.sqrt(c * c + 4.0 * b * b)
        P = (root - c) / (2.0 * b * b) if c <= 0 else 2.0 / (c + root)
        K = -b * P * a / (1.0 + b * b * P)
        sol = dare_solve([[a]], [[b]], [[1.0]], [[1.0]])
        assert abs(sol.P[0, 0] - P) <= 1e-12 * P
        assert abs(sol.K[0, 0] - K) <= 1e-12 * abs(K)

    def test_residual_is_relative_riccati_residual(self, rng):
        A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
        Q, R = rand_pd(rng, 3), rand_pd(rng, 2)
        sol = dare_solve(A, B, Q, R)
        P_step, _ = riccati_step(A, B, Q, R, sol.P)
        expected = np.linalg.norm(P_step - sol.P) / (1 + np.linalg.norm(sol.P))
        assert sol.residual == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_doubling_cap_raises_with_residual(self, tmp_path, monkeypatch):
        monkeypatch.setattr(riccati, "DOUBLING_CAP", 1)
        with pytest.raises(ConvergenceError) as info:
            dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        # one doubling gives the horizon-2 value 1.5; Ric(1.5) = 1.6
        assert info.value.residual == pytest.approx(0.1 / 2.5, rel=1e-12)
        spec = {"n_dm": 1, "horizon": 1,
                "model": {"A": [[1.0]], "B": [[1.0]]},
                "cost": {"Q": [[1.0]], "R": [[1.0]]},
                "noise": {"sigma_w": [[1.0]], "init_diag": [[1.0]],
                          "init_offdiag": [[0.0]]},
                "info": {"kind": "tree"}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["dare", str(path)]) == EXIT_NUMERICAL

    def test_cesaro_mean_of_value_norms(self):
        """(1/T) sum_t ||P_t^{(T)}|| converges to ||P_dare|| on the scalar
        golden-ratio instance."""
        A = B = Q = R = np.array([[1.0]])
        target = dare_solve(A, B, Q, R).P[0, 0]
        T = 20000
        P = np.zeros((1, 1))
        norms = []
        for _ in range(T):
            P, _ = riccati_step(A, B, Q, R, P)
            norms.append(abs(P[0, 0]))
        cesaro = np.mean(norms)
        assert abs(cesaro - target) < 1e-4


class TestStein:
    def test_matches_dense_solve(self, rng):
        """X = Psi + U X V against the Kronecker form of the same equation,
        (I - V^T kron U) vec(X) = vec(Psi) with column-major vec."""
        for n, k, ru, rv in ((1, 1, 0.5, 0.9), (3, 2, 0.9, 0.95),
                             (4, 8, 0.99, 0.97)):
            U = rng.normal(size=(n, n))
            V = rng.normal(size=(k, k))
            U *= ru / spectral_radius(U)
            V *= rv / spectral_radius(V)
            Psi = rng.normal(size=(n, k))
            X = stein_solve(U, Psi, V)
            ref = np.linalg.solve(np.eye(n * k) - np.kron(V.T, U),
                                  Psi.ravel(order="F"))
            assert np.allclose(X, ref.reshape((n, k), order="F"),
                               rtol=1e-10, atol=1e-10)

    def test_non_contracting_raises(self):
        """U = V = I: the series does not converge, and the doubling says so
        rather than returning 2**64 Psi."""
        cap = riccati.DOUBLING_CAP
        with pytest.raises(ConvergenceError,
                           match=f"did not settle after {cap} steps"):
            stein_solve(np.eye(2), np.ones((2, 3)), np.eye(3))


class TestPBH:
    def test_unstable_uncontrollable(self):
        assert is_stabilizable([[2.0]], [[0.0]]) is False

    def test_scalar_with_input(self):
        assert is_stabilizable([[2.0]], [[1.0]]) is True

    def test_already_stable(self):
        assert is_stabilizable([[0.5]], [[0.0]]) is True

    def test_detectable_dual(self):
        assert is_detectable([[2.0]], [[1.0]]) is True
        assert is_detectable([[2.0]], [[0.0]]) is False

    def test_detectability_tests_the_transposed_pair(self):
        """A = [[2, 1], [0, 0.5]] with C = [[0, 1]]: the unstable mode
        [1, 0] gives C v = 0, so (A, C) is not detectable, although
        (A, C^T) is stabilizable; C = [[1, 0]] sees that mode."""
        A = np.array([[2.0, 1.0], [0.0, 0.5]])
        assert is_detectable(A, [[0.0, 1.0]]) is False
        assert is_stabilizable(A, [[0.0], [1.0]]) is True
        assert is_detectable(A, [[1.0, 0.0]]) is True

    def test_unstable_mode_outside_input_range(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        assert is_stabilizable(A, B) is False
        B2 = np.array([[1.0], [0.0]])
        assert is_stabilizable(A, B2) is True


class TestSpectralRadius:
    def test_examples(self):
        assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5)
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)
        assert spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(1.0)
