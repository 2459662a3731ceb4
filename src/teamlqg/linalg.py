"""Small shared numerical helpers (symmetrization, PSD tests, ranks, and
Kronecker products).

``kron`` builds the block matrices of the delayed class and the sampler's
joint initial-state covariance.  Most operands are 1x1 to 3x3, where
numpy's ``kron`` spends far more time on Python-level axis bookkeeping than
on arithmetic.  One broadcast product forms the same elementwise products,
so the result is bitwise equal to numpy's, signed zeros included."""

import numpy as np

# Relative eigenvalue slack for PSD tests: min eig >= -PSD_REL_TOL * (1 + max eig).
PSD_REL_TOL = 1e-9
# Allowed relative asymmetry before a matrix is rejected as non-symmetric.
SYM_TOL = 1e-10


def as_matrix(M, name="matrix"):
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric matrix") from exc
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    return M


def kron(X, Y):
    """Kronecker product of two 2-D arrays, bitwise equal to numpy's."""
    (a, b), (c, d) = X.shape, Y.shape
    return (X[:, None, :, None] * Y[None, :, None, :]).reshape(a * c, b * d)


def sym(M):
    """(M + M^T)/2 of a matrix or stack; absorbs serialization rounding."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def asymmetry(M):
    return np.linalg.norm(M - M.T) / (1.0 + np.linalg.norm(M))


def min_max_eig(M):
    w = np.linalg.eigvalsh(sym(M))
    return w[0], w[-1]


def is_psd(M):
    lo, hi = min_max_eig(M)
    return lo >= -PSD_REL_TOL * (1.0 + abs(hi))


def is_pd(M):
    lo, hi = min_max_eig(M)
    return lo > 1e-12 * abs(hi)


def psd_sqrt(M):
    """Symmetric PSD square root (eigenvalues clamped at zero)."""
    w, V = np.linalg.eigh(sym(M))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def psd_factor(M):
    """Factor F with F @ F.T = M for PSD M (eigen-based, rank-revealing)."""
    w, V = np.linalg.eigh(sym(M))
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)


def numerical_rank(M):
    """Rank of M, or of each matrix of a stack M[..., :, :]: the singular
    values above max(rows, cols) * s_max * 1e-12."""
    s = np.linalg.svd(M, compute_uv=False)
    rank = np.sum(s > max(M.shape[-2:]) * s[..., :1] * 1e-12, axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def spectral_radius(M):
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))
