"""Multiuser detection: Max-Log MPA over the factor graph plus an ML oracle.

The message-passing detector exchanges log-domain messages between resource
nodes and user nodes of the sparse occupancy graph, with max-sum (Max-Log)
updates. All K resources are stacked into one array per quantity, each
padded to the maximum row degree d with a phantom user whose M codewords are
zero, so regular and irregular graphs share one code path and an iteration
loops only over the d slots of a resource.

The resource-to-user update views the combination metrics of a resource as a
cube with one length-M axis per slot. For each slot, the max over the other
slot axes is folded off one axis at a time with elementwise np.maximum over
halves of that axis, and the max over the later slots is shared between
slots. Each message is that max minus the slot's own incoming message, which
rounds exactly as the max of the differences would. The batch runs in
blocks of BLOCK vectors, with the vectors on the last axis of every array:
inner loops run over vectors rather than over length-M slot axes, and an
iteration's temporaries stay inside the L2 cache. Every step is row-wise, so
blocking changes no bit of the output.

The ML oracle enumerates the entire superimposed constellation and is
intended for small instances and cross-checks. It runs core.nearest_points,
the exact search compute_med uses too, with the channel folded into the
screen: one GEMM of conj(h) r against the unfaded points, plus |h p|^2, in
float32 for a batch of at least core.SEARCH_BLOCK vectors of moderate
magnitude and in float64 otherwise, a single vector included. Rows whose
runner-up lies within the screen's rounding bound of the best are
re-checked exactly in float64 on h p of their candidates only, each squared
distance summed over the 2K real dimensions one at a time in index order,
and the first minimum (lowest tuple index) wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .core import (
    Codebook,
    ConfigError,
    IndicatorMatrix,
    ShapeError,
    nearest_points,
    superimposed_constellation,
    tuple_digits,
)

# keeps log-likelihoods finite when noise-free inputs are decoded
N0_FLOOR = 1e-12
# received vectors per message-passing block: on the Huawei graph (K=4, d=3,
# M=4) a block's (M^d, K, BLOCK) metric and combination arrays take 512 kB
# each, so an iteration's working set fits a 2 MB L2 cache
BLOCK = 256


@dataclass(frozen=True)
class MpaConfig:
    n_iter: int = 10

    def __post_init__(self):
        if self.n_iter < 1:
            raise ConfigError(f"n_iter must be >= 1, got {self.n_iter}")


@dataclass(frozen=True)
class PosteriorSet:
    """Per-user posterior probability vectors over the M messages."""

    probs: np.ndarray  # (J, M)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ShapeError(f"posteriors must be (J, M), got shape {p.shape}")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise ConfigError("posteriors must be valid distributions")
        object.__setattr__(self, "probs", p)

    def hard_decisions(self) -> np.ndarray:
        return np.argmax(self.probs, axis=1)


def _fold_max(x: np.ndarray, axis: int) -> np.ndarray:
    """Max over one axis of x whose length is a power of two, by np.maximum of its halves."""
    lead = (slice(None),) * axis
    n = x.shape[axis]
    while n > 1:
        n //= 2
        x = np.maximum(x[lead + (slice(0, n),)], x[lead + (slice(n, 2 * n),)])
    return x[lead + (0,)]


def _slot_maxima(cube: np.ndarray, d: int) -> list[np.ndarray]:
    """For each of the d leading (slot) axes of cube, the max over the other slot axes.

    cube is (M,) * d + rest; returns d arrays of shape (M,) + rest. The max
    over the slots after s is shared: it is folded off the back once, one
    slot at a time, and slot s then folds the slots before it off the front.
    """
    after = [cube]  # after[i] keeps slots 0..d-1-i
    for axis in range(d - 1, 0, -1):
        after.append(_fold_max(after[-1], axis))
    maxima = []
    for s in range(d):
        x = after[d - 1 - s]
        for _ in range(s):
            x = _fold_max(x, 0)
        maxima.append(x)
    return maxima


class _FactorGraph:
    """Combination tables of one codebook, stacked over the K resources.

    Resource k holds its users in ascending order in slots 0..d-1, then the
    phantom user J in the slots left over. The phantom adds zero to every
    combination, so each real combination appears M times per phantom slot
    and a max is unchanged. No user node reads a phantom slot.
    """

    def __init__(self, codebook: Codebook):
        cfg, ind = codebook.config, codebook.indicator
        M, K, J = self.M, self.K, self.J = cfg.M, cfg.K, cfg.J
        self.d = d = ind.max_row_degree
        self.slot_users = np.full((K, d), J)  # (K, d) user on each slot
        for k, row in enumerate(ind.F):
            self.slot_users[k, : row.sum()] = np.flatnonzero(row)
        # (d, M^d) message of each slot in every combination; slot 0 most significant
        slot_index = tuple_digits(np.arange(M**d), M, d).T
        # candidate noiseless resource values (K, M^d) from each slot's codewords
        entries = np.concatenate([codebook.entries, np.zeros((1, K, M), dtype=complex)])
        slot_words = entries[self.slot_users, np.arange(K)[:, None]]
        self.sums = np.zeros((K, M**d), dtype=complex)
        for slot in range(d):
            self.sums = self.sums + slot_words[:, slot, slot_index[slot]]
        # (J, N) flat resource * d + slot positions of each user, ascending
        # resource; phantom slots sort last and are dropped
        order = np.argsort(self.slot_users.reshape(-1), kind="stable")
        self.edges = order[: J * cfg.N].reshape(J, cfg.N)


def _mpa_posteriors(received: np.ndarray, codebook: Codebook, ch: ChannelRealization,
                    cfg: MpaConfig, graph: _FactorGraph | None = None) -> np.ndarray:
    """Batched message passing: received (B, K) complex -> posteriors (B, J, M)."""
    g = graph if graph is not None else _FactorGraph(codebook)
    B = received.shape[0]
    # noiseless candidates (M^d, K, 1) of every combination on every resource
    faded = (ch.h[:, None] * g.sums).T[:, :, None]
    n0 = max(ch.n0, N0_FLOOR)
    post = np.empty((B, g.J, g.M))
    for a in range(0, B, BLOCK):
        post[a : a + BLOCK] = _block_posteriors(received[a : a + BLOCK], faded, n0, g, cfg)
    return post


def _block_posteriors(received: np.ndarray, faded: np.ndarray, n0: float,
                      g: _FactorGraph, cfg: MpaConfig) -> np.ndarray:
    """All iterations on one block: received (b, K) -> posteriors (b, J, M).

    The block's vectors run along the last axis of every array, so each
    elementwise step loops innermost over b contiguous values, not over a
    length-M slot axis.
    """
    b = received.shape[0]
    M, K, d = g.M, g.K, g.d
    # channel metric of every combination on every resource: (M^d, K, b)
    phi = -np.abs(received.T[None] - faded) ** 2 / n0
    cube_shape = (M,) * d + (K, b)
    total = np.empty(cube_shape)
    # user-to-resource (v) and resource-to-user messages per (resource, slot),
    # uniform start; v4 and r4 are (K, d, M, b) views
    v, r_msg = np.zeros((2, K * d, M, b))
    v4, r4 = v.reshape(K, d, M, b), r_msg.reshape(K, d, M, b)
    # per slot s: its (M, K, b) messages, and the same broadcast along slot
    # axis s of the cube
    v_slot = [v4[:, s].swapaxes(0, 1) for s in range(d)]
    r_slot = [r4[:, s].swapaxes(0, 1) for s in range(d)]
    v_axis = [v_slot[s].reshape((1,) * s + (M,) + (1,) * (d - 1 - s) + (K, b)) for s in range(d)]

    for _ in range(cfg.n_iter):
        # resource-to-user: combine channel metric with every slot's message,
        # then remove each slot's own message from the max over the others
        np.add(phi.reshape(cube_shape), v_axis[0], out=total)
        for s in range(1, d):
            total += v_axis[s]
        for s, peak in enumerate(_slot_maxima(total, d)):
            np.subtract(peak, v_slot[s], out=r_slot[s])
        # user-to-resource: sum of the other resources' messages, normalized
        incoming = r_msg[g.edges]  # (J, N, M, b)
        msg = incoming.sum(axis=1, keepdims=True) - incoming
        msg -= _fold_max(msg, 2)[:, :, None]
        v[g.edges] = msg

    # posteriors from the final resource-to-user messages, as (b, J, M)
    tot = np.ascontiguousarray(r_msg[g.edges].sum(axis=1).transpose(2, 0, 1))
    tot -= tot.max(axis=2, keepdims=True)
    p = np.exp(tot)
    return p / p.sum(axis=2, keepdims=True)


def _received_vector(received, codebook: Codebook) -> np.ndarray:
    """One received vector as a (1, K) complex batch."""
    r = np.asarray(received, dtype=complex)
    if r.shape != (codebook.config.K,):
        raise ShapeError(f"received vector shape {r.shape}, expected ({codebook.config.K},)")
    return r[None, :]


def mpa_detect(received, codebook: Codebook, ch: ChannelRealization, cfg: MpaConfig = MpaConfig()) -> PosteriorSet:
    """Per-user posteriors for one received vector; hard decision is argmax."""
    probs = _mpa_posteriors(_received_vector(received, codebook), codebook, ch, cfg)[0]
    return PosteriorSet(probs=probs)


def _ml_decisions(received: np.ndarray, codebook: Codebook, ch: ChannelRealization,
                  points: np.ndarray | None = None) -> np.ndarray:
    """Batched exhaustive joint ML: received (B, K) -> decisions (B, J)."""
    cfg = codebook.config
    pts = points if points is not None else superimposed_constellation(codebook)
    return tuple_digits(nearest_points(received, pts, ch.h), cfg.M, cfg.J)


def ml_detect(received, codebook: Codebook, ch: ChannelRealization) -> np.ndarray:
    """Joint maximum-likelihood message tuple for one received vector.

    Minimizes ||r - diag(h) sum_j x_{j,m_j}||^2 over all M^J tuples; ties are
    broken toward the lowest tuple index (user 0 most significant).
    """
    return _ml_decisions(_received_vector(received, codebook), codebook, ch)[0]


def mpa_complexity(cfg: MpaConfig, ind: IndicatorMatrix, alphabet_size: int) -> int:
    """Operation-count model N_iter * K * d_f^2 * M^d_f of the detector."""
    df = ind.max_row_degree
    if not ind.is_regular:
        warnings.warn(
            f"irregular row degrees {ind.row_degrees.tolist()}; using max degree {df}",
            stacklevel=2,
        )
    return int(cfg.n_iter * ind.n_resources * df**2 * alphabet_size**df)
