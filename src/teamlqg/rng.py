"""Reproducible sampling of team primitives.

Rollouts are drawn in blocks of ``BLOCK`` consecutive rollouts.  Block b of
seed s has its own counter-based Philox key (s, b), and each stage of the
block is a substream of that key starting at counter (0, 0, 0, stage):
stage 0 holds the initial states and stage t + 1 the noise w_t.  A stage
fills the block's (rows, k_stage) variates rollout-major: rollout
b * BLOCK + r takes the k_stage variates after the first r * k_stage of its
block's stage.  A rollout's variates therefore depend only on the seed, its
index and the stage, a draw of fewer rollouts is a bitwise prefix of a draw
of more, and the noise of stage t does not depend on the horizon, so results
are reproducible regardless of chunking.  ``BLOCK`` is part of the stream
definition, not a tuning knob: another value would key rollouts to other
streams and change every result.  A draw returns the initial states and an
iterator that fills each noise stage only when it is taken, so a consumer
that prices one stage at a time holds one stage, not the horizon.  Each
stage is stored rollout-last, (N, n, R), so the engines step all rollouts of
an agent's state entry as one contiguous row.  Initial states are
exchangeable across agents; the "uniform" family pushes i.i.d.
uniform[-sqrt(3), sqrt(3)] variates (unit variance) through the same
covariance factors, so first and second moments match the Gaussian family
exactly.
"""

from __future__ import annotations

import numpy as np

from .linalg import is_psd, kron, psd_factor, sym
from .model import NoiseSpec

BLOCK = 4096

_SQRT3 = np.sqrt(3.0)


def block_generator(seed: int, block: int, stage: int) -> np.random.Generator:
    """Stage ``stage``'s substream of block ``block``'s Philox key; a seed
    outside [0, 2**64) would alias one inside, so every draw refuses it
    here."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, block], dtype=np.uint64),
        counter=np.array([0, 0, 0, stage], dtype=np.uint64)))


def _fill(gen, out, family):
    if family == "gaussian":
        gen.standard_normal(out=out)
    else:
        gen.random(out=out)
        out *= 2.0 * _SQRT3
        out -= _SQRT3


class PrimitiveSampler:
    """Draws (x0, w) for closed-loop rollouts of an N-agent team."""

    def __init__(self, noise: NoiseSpec, n_dm: int):
        self.family = noise.family
        self.n_dm = n_dm
        self.n = noise.sigma_w.shape[0]
        self.Fw = psd_factor(sym(noise.sigma_w))
        sd, so = sym(noise.init_diag), sym(noise.init_offdiag)
        if is_psd(so) and is_psd(sd - so):
            # x0^i = Ad z_i + Ac z_common: O(N) draws per rollout.
            self._split = (psd_factor(sd - so), psd_factor(so))
            self._joint = None
        else:
            N = n_dm
            joint = kron(np.eye(N), sd - so) + kron(np.ones((N, N)), so)
            self._split = None
            self._joint = psd_factor(joint)

    def _stage(self, seed, first_block, n_rollouts, stage, k):
        """Stage ``stage``'s standard variates of rollouts first_block *
        BLOCK onward, as a (k, R) view of their rollout-major fill."""
        raw = np.empty((n_rollouts, k))
        for lo in range(0, n_rollouts, BLOCK):
            _fill(block_generator(seed, first_block + lo // BLOCK, stage),
                  raw[lo:lo + BLOCK], self.family)
        return raw.T

    def draw(self, T: int, n_rollouts: int, seed: int, first_block: int = 0):
        """Rollouts first_block * BLOCK onward: x0 with shape (R, N, n) and
        an iterator over the T noise stages w_t, each with shape (R, N, n)
        and drawn when it is taken.

        Each is a transposed view of rollout-last storage, (N, n, R), so
        ``x0.transpose(1, 2, 0)`` is C-contiguous, and so is each stage's.
        The factors are applied from the left to the (k, R) view of a
        stage's fill, which writes that storage in one product.
        """
        N, n, R = self.n_dm, self.n, n_rollouts
        k0 = N * n if self._split is None else n + N * n
        z = self._stage(seed, first_block, R, 0, k0)
        if self._split is not None:
            Ad, Ac = self._split
            x0 = Ad @ z[n:].reshape(N, n, R)
            x0 += Ac @ z[:n]
        else:
            x0 = (self._joint @ z).reshape(N, n, R)
        return x0.transpose(2, 0, 1), self._noise(T, R, seed, first_block)

    def _noise(self, T, R, seed, first_block):
        N, n = self.n_dm, self.n
        for t in range(T):
            e = self._stage(seed, first_block, R, t + 1, N * n)
            # At n = 1 one scalar multiply: numpy's (1, 1) matrix product
            # is far slower and rounds alike.
            if n == 1:
                w = np.multiply(e, self.Fw[0, 0], out=np.empty((N, R)))
            else:
                w = self.Fw @ e.reshape(N, n, R)
            yield w.reshape(N, n, R).transpose(2, 0, 1)
