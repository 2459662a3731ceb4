"""Discrete-time Riccati machinery and stabilizability/detectability tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, numerical_rank, psd_sqrt, spectral_radius, sym

# Eigenvalues this close to (or outside) the unit circle count as modes that
# must be controlled/observed.
UNIT_CIRCLE_MARGIN = 1e-10

# dare_solve and stein_solve: at most this many doublings (horizon
# 2**DOUBLING_CAP); they stop once successive values differ by SETTLE_RTOL
# relative, and reject an answer whose relative residual exceeds
# RESIDUAL_BOUND.
DOUBLING_CAP = 64
SETTLE_RTOL = 4 * np.finfo(float).eps
RESIDUAL_BOUND = 1e-10


class RiccatiError(RuntimeError):
    pass


class ConvergenceError(RiccatiError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def riccati_step(A, B, Q, R, P_next):
    """One backward step of the value recursion.

    Returns (P, K) with K = -(R + B^T P' B)^{-1} B^T P' A and
    P = Q + A^T P' A - A^T P' B (R + B^T P' B)^{-1} B^T P' A, symmetrized.
    """
    A, B = as_matrix(A), as_matrix(B)
    Q, R, P_next = as_matrix(Q), as_matrix(R), as_matrix(P_next)
    G = R + B.T @ P_next @ B
    try:
        K = -np.linalg.solve(G, B.T @ P_next @ A)
    except np.linalg.LinAlgError as exc:
        raise RiccatiError("R + B^T P B is not invertible") from exc
    P = Q + A.T @ P_next @ A + A.T @ P_next @ B @ K
    return sym(P), K


def is_stabilizable(A, B):
    """PBH test: rank [A - lam I, B] = n for every eigenvalue with |lam| >= 1."""
    A, B = as_matrix(A), as_matrix(B)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - UNIT_CIRCLE_MARGIN:
            M = np.hstack([A - lam * np.eye(n), B.astype(complex)])
            if numerical_rank(M) < n:
                return False
    return True


def is_detectable(A, C):
    A, C = as_matrix(A), as_matrix(C)
    return is_stabilizable(A.T, C.T)


@dataclass(frozen=True)
class DareSolution:
    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int


def dare_solve(A, B, Q, R) -> DareSolution:
    """Stationary value matrix as the horizon limit of the backward recursion.

    Structure-preserving doubling (Lin & Xu, SIAM J. Matrix Anal. Appl.
    2006): from A_0 = A, G_0 = B R^{-1} B^T and H_0 = Q, step k gives H_k,
    the value of horizon 2^k started from P = 0, and converges
    quadratically.  Doubling stops when successive H_k agree to rounding;
    ``residual`` is the relative Riccati residual |Ric(P) - P| / (1 + |P|)
    and ``iterations`` the number of doublings.  Stabilizability of (A, B)
    and detectability of (A, Q^{1/2}) are checked up front.
    """
    A, B, Q, R = as_matrix(A), as_matrix(B), as_matrix(Q), as_matrix(R)
    if not is_stabilizable(A, B):
        raise RiccatiError("(A, B) is not stabilizable")
    if not is_detectable(A, psd_sqrt(Q)):
        raise RiccatiError("(A, Q^(1/2)) is not detectable")
    n = A.shape[0]
    Ak, Gk, Hk = A, sym(B @ np.linalg.solve(sym(R), B.T)), sym(Q)
    settled = False
    for k in range(1, DOUBLING_CAP + 1):
        # G_k and H_k stay PSD, so I + G_k H_k is invertible
        X = np.linalg.solve(np.eye(n) + Gk @ Hk, np.hstack([Ak, Gk]))
        H_next = sym(Hk + Ak.T @ Hk @ X[:, :n])
        Gk = sym(Gk + Ak @ X[:, n:] @ Ak.T)
        Ak = Ak @ X[:, :n]
        settled = np.linalg.norm(H_next - Hk) <= SETTLE_RTOL * np.linalg.norm(H_next)
        Hk = H_next
        if settled:
            break
    P_step, K = riccati_step(A, B, Q, R, Hk)
    residual = float(np.linalg.norm(P_step - Hk) / (1.0 + np.linalg.norm(Hk)))
    _check_converged("DARE", settled, k, residual)
    return DareSolution(P=Hk, K=K, residual=residual, iterations=k)


def _check_converged(name, settled, k, residual):
    """ConvergenceError unless settled with residual <= RESIDUAL_BOUND."""
    if not (settled and residual <= RESIDUAL_BOUND):
        raise ConvergenceError(
            f"{name} doubling {'settled' if settled else 'did not settle'} "
            f"after {k} steps with relative residual {residual:.3e} "
            f"(bound {RESIDUAL_BOUND:.0e})", residual=residual)


def stein_solve(U, Psi, V) -> np.ndarray:
    """X = Psi + U X V for U and V with spectral radii product below 1.

    Smith's doubling (R. A. Smith, SIAM J. Appl. Math. 1968): step k adds
    the terms 2^(k-1)..2^k - 1 of the series X = sum_j U^j Psi V^j, so it
    converges quadratically.  It stops when a step changes X by rounding,
    and raises ConvergenceError when it does not within DOUBLING_CAP steps or
    the relative residual |Psi + U X V - X| / (1 + |X|) exceeds
    RESIDUAL_BOUND.  U (k, n, n) and Psi (k, n, p) may stack k equations on
    one V, solved together and judged on the norms of the whole stack.
    """
    X, Uk, Vk = Psi, U, V
    for k in range(1, DOUBLING_CAP + 1):
        D = Uk @ X @ Vk
        X = X + D
        settled = np.linalg.norm(D) <= SETTLE_RTOL * np.linalg.norm(X)
        if settled:
            break
        Uk, Vk = Uk @ Uk, Vk @ Vk
    residual = float(np.linalg.norm(Psi + U @ X @ V - X)
                     / (1.0 + np.linalg.norm(X)))
    _check_converged("Stein", settled, k, residual)
    return X


__all__ = [
    "DareSolution",
    "RiccatiError",
    "ConvergenceError",
    "riccati_step",
    "dare_solve",
    "stein_solve",
    "is_stabilizable",
    "is_detectable",
    "spectral_radius",
]
