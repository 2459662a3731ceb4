"""Reproducible sampling of team primitives.

Rollouts are drawn in blocks of ``BLOCK`` consecutive rollouts.  Block b of
seed s has its own counter-based Philox stream keyed by (s, b), and the
stream fills the block's (rows, k) variates rollout-major: rollout
b * BLOCK + r takes the k variates after the first r * k of its block.  A
rollout's variates therefore depend only on the seed and its index, and a
draw of fewer rollouts is a bitwise prefix of a draw of more, so results are
reproducible regardless of chunking.  ``BLOCK`` is part of the stream
definition, not a tuning knob: another value would key rollouts to other
streams and change every result.  A draw stores its variates rollout-last,
variate-major (k, R), so the engines step all rollouts of an agent's state
entry as one contiguous row; the stream fills them ``CHUNK`` rows at a time
through a small rollout-major buffer, which leaves it unchanged.  Initial
states are exchangeable across agents; the "uniform" family pushes i.i.d.
uniform[-sqrt(3), sqrt(3)] variates (unit variance) through the same
covariance factors, so first and second moments match the Gaussian family
exactly.
"""

from __future__ import annotations

import numpy as np

from .linalg import is_psd, kron, psd_factor, sym
from .model import NoiseSpec

BLOCK = 4096
# Rows of a block filled per pass through the sampler's buffer.  Any
# divisor of BLOCK gives the same stream; it only bounds the buffer.
CHUNK = 256

_SQRT3 = np.sqrt(3.0)


def block_generator(seed: int, block: int) -> np.random.Generator:
    """Block ``block``'s Philox stream; a seed outside [0, 2**64) would
    alias one inside, so every draw refuses it here."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


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

    def draw(self, T: int, n_rollouts: int, seed: int, first_block: int = 0):
        """Rollouts first_block * BLOCK onward: x0 with shape (R, N, n) and w
        with shape (R, T, N, n).

        Both are transposed views of rollout-last storage, (N, n, R) and
        (T, N, n, R), so ``x0.transpose(1, 2, 0)`` and
        ``w.transpose(1, 2, 3, 0)`` are C-contiguous.  Chunked fills of one
        generator give the bits of one fill, so filling a (CHUNK, k) buffer
        and transposing it into the (k, R) storage keeps the stream, and a
        draw holds one array of its size.
        """
        N, n = self.n_dm, self.n
        if self._split is not None:
            k_init = n + N * n
        else:
            k_init = N * n
        raw = np.empty((k_init + T * N * n, n_rollouts))
        buf = np.empty((min(CHUNK, n_rollouts), raw.shape[0]))
        for lo in range(0, n_rollouts, CHUNK):
            if lo % BLOCK == 0:
                gen = block_generator(seed, first_block + lo // BLOCK)
            rows = buf[:n_rollouts - lo]
            _fill(gen, rows, self.family)
            raw[:, lo:lo + len(rows)] = rows.T

        if self._split is not None:
            Ad, Ac = self._split
            x0 = Ad @ raw[n:k_init].reshape(N, n, n_rollouts) + Ac @ raw[:n]
        else:
            x0 = (self._joint @ raw[:k_init]).reshape(N, n, n_rollouts)
        # The noise is scaled in place, so a draw holds one array of its
        # size, not two: at n = 1 by one scalar multiply of the whole block
        # (numpy's (1, 1) matrix product is far slower and rounds alike),
        # otherwise one step at a time.
        w = raw[k_init:].reshape(T, N, n, n_rollouts)
        if n == 1:
            w *= self.Fw[0, 0]
        else:
            for t in range(T):
                w[t] = self.Fw @ w[t]
        return x0.transpose(2, 0, 1), w.transpose(3, 0, 1, 2)
