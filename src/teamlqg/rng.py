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
are reproducible regardless of chunking.  Populations nest the same way: a
block's stage for N agents is the first rows * k_stage(N) variates of its
substream, the flat prefix of that stage for any larger population, so one
fill at the largest population's width holds the stage of every smaller
one (``PrimitiveSampler``'s ``nested``).  ``BLOCK`` is part of the stream
definition, not a tuning knob: another value would key rollouts to other
streams and change every result.  A draw is an iterator that fills each
stage only when it is taken, into the one fill buffer and the one output
buffer of the draw, so a consumer that prices one stage at a time holds one
stage, not the horizon.  Each stage is stored rollout-last, (N, n, R), so
the engines step all rollouts of an agent's state entry as one contiguous
row.  Initial states are exchangeable across
agents; the "uniform" family pushes i.i.d. uniform[-sqrt(3), sqrt(3)]
variates (unit variance) through the same covariance factors, so first and
second moments match the Gaussian family exactly.
"""

from __future__ import annotations

import numpy as np

from .linalg import is_psd, kron, psd_factor, sym
from .model import NoiseSpec

BLOCK = 4096

_SQRT3 = np.sqrt(3.0)


def block_generator(seed: int, block: int):
    """The substreams of block ``block``'s Philox key (seed, block).

    Returns ``at``: ``at(stage)`` sets the counter of the block's one bit
    generator to (0, 0, 0, stage) with its buffer empty, as a Philox freshly
    constructed there, and returns the generator.  A seed outside
    [0, 2**64) would alias one inside, so every draw refuses it here.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    key = np.array([seed, block], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    counter = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    def at(stage):
        counter[3] = stage
        gen.bit_generator.state = state
        return gen
    return at


class PrimitiveSampler:
    """Draws (x0, w) for closed-loop rollouts of an N-agent team and, from
    the same fills, of populations nested in it."""

    def __init__(self, noise: NoiseSpec, n_dm: int, nested=()):
        """``nested``: smaller population sizes drawn with this one; a draw
        holds one population per entry of ``sizes``, the nested sizes
        followed by n_dm."""
        self.family = noise.family
        self.n_dm = n_dm
        self.sizes = (*nested, n_dm)
        self.n = noise.sigma_w.shape[0]
        self.Fw = psd_factor(sym(noise.sigma_w))
        sd, so = sym(noise.init_diag), sym(noise.init_offdiag)
        if is_psd(so) and is_psd(sd - so):
            # x0^i = Ad z_i + Ac z_common: O(N) draws per rollout.
            self._split = (psd_factor(sd - so), psd_factor(so))
            self._joints = (None,) * len(self.sizes)
        else:
            self._split = None
            self._joints = tuple(
                psd_factor(kron(np.eye(N), sd - so)
                           + kron(np.ones((N, N)), so)) for N in self.sizes)

    def _k0(self, N):
        """Stage 0's variates per rollout of N agents."""
        return N * self.n if self._split is None else self.n + N * self.n

    def _fill(self, blocks, stage, out):
        """Fills ``out`` (R, k) with stage ``stage``'s variates of the
        blocks, rollout-major."""
        for lo, at in zip(range(0, len(out), BLOCK), blocks):
            rows = out[lo:lo + BLOCK]
            if self.family == "gaussian":
                at(stage).standard_normal(out=rows)
            else:
                at(stage).random(out=rows)
                rows *= 2.0 * _SQRT3
                rows -= _SQRT3

    def draw(self, T: int, n_rollouts: int, seed: int, first_block: int = 0):
        """Rollouts first_block * BLOCK onward of every population of
        ``sizes``: an iterator over the T + 1 stages, stage 0 the initial
        states x0 and stage t + 1 the noise w_t, each an iterator over the
        populations' (R, N, n) arrays.

        A stage is filled when it is taken, once at n_dm's width, and each
        population's array is computed from its flat prefix of the fill
        (bitwise its own draw) when it is taken, into one buffer that every
        population and stage shares: take each array before the next.
        Each is a transposed view of rollout-last storage, (N, n, R), so
        ``x.transpose(1, 2, 0)`` is C-contiguous.  The factors are applied
        from the left to the (k, R) view of a population's fill, which
        writes that storage in one product.  Nested populations are drawn
        one block at a time.
        """
        R = n_rollouts
        if len(self.sizes) > 1 and R > BLOCK:
            raise ValueError(f"{R} rollouts: nested populations are drawn "
                             f"one block ({BLOCK}) at a time")
        blocks = [block_generator(seed, first_block + b)
                  for b in range(-(-R // BLOCK))]
        return self._stages(T, blocks, R)

    def _stages(self, T, blocks, R):
        """The draw's stages; each noise stage fills the first
        R * n_dm * n entries of stage 0's buffer."""
        fill = np.empty((R, self._k0(self.n_dm)))
        out = np.empty((self.n_dm, self.n, R))
        self._fill(blocks, 0, fill)
        yield self._x0(fill, out)
        fill = _prefix(fill, self.n_dm * self.n)
        for t in range(T):
            self._fill(blocks, t + 1, fill)
            yield self._noise(fill, out)

    def _x0(self, fill, out):
        """Each population's initial states from its prefix of stage 0."""
        n, R = self.n, len(fill)
        for N, joint in zip(self.sizes, self._joints):
            z, x0 = _prefix(fill, self._k0(N)).T, out[:N]
            if self._split is None:
                np.matmul(joint, z, out=x0.reshape(N * n, R))
            else:
                Ad, Ac = self._split
                np.matmul(Ad, z[n:].reshape(N, n, R), out=x0)
                x0 += Ac @ z[:n]
            yield x0.transpose(2, 0, 1)

    def _noise(self, fill, out):
        """Each population's noise from its prefix of the stage's fill."""
        n, R = self.n, len(fill)
        for N in self.sizes:
            e, w = _prefix(fill, N * n).T.reshape(N, n, R), out[:N]
            # At n = 1 one scalar multiply: numpy's (1, 1) matrix product
            # is far slower and rounds alike.
            if n == 1:
                np.multiply(e, self.Fw[0, 0], out=w)
            else:
                np.matmul(self.Fw, e, out=w)
            yield w.transpose(2, 0, 1)


def _prefix(fill, k):
    """A population's (R, k) fill of a block's stage: the flat prefix of
    the stage's rollout-major (R, K) fill at any width K >= k."""
    return fill.reshape(-1)[:len(fill) * k].reshape(-1, k)
