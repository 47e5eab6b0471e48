"""Multiuser detection: Max-Log MPA over the factor graph plus an ML oracle.

The message-passing detector exchanges log-domain messages between resource
nodes and user nodes of the sparse occupancy graph. The default update is
max-sum (Max-Log); exact sum-product is available as a config option. All K
resources are stacked into one array per quantity, each padded to the maximum
row degree d with a phantom user whose M codewords are zero, so regular and
irregular graphs share one code path and an iteration loops only over the d
slots of a resource. The ML oracle enumerates the entire superimposed
constellation and is intended for small instances and cross-checks.
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
    SearchSpaceError,
    ShapeError,
    superimposed_constellation,
    tuple_digits,
)

# keeps log-likelihoods finite when noise-free inputs are decoded
N0_FLOOR = 1e-12


@dataclass(frozen=True)
class MpaConfig:
    n_iter: int = 10
    damping: float = 0.0
    max_log: bool = True  # False selects exact sum-product updates

    def __post_init__(self):
        if self.n_iter < 1:
            raise ConfigError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0.0 <= self.damping < 1.0:
            raise ConfigError(f"damping must be in [0, 1), got {self.damping}")


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


def _logsumexp(x: np.ndarray, axis) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


class _FactorGraph:
    """Combination tables of one codebook, stacked over the K resources.

    Resource k holds its users in ascending order in slots 0..d-1, then the
    phantom user J in the slots left over. The phantom adds zero to every
    combination, so each real combination appears M times per phantom slot:
    a max is unchanged, and a log-sum-exp gains log M, a constant over the
    message that normalization removes. No user node reads a phantom slot.
    """

    def __init__(self, codebook: Codebook):
        cfg, ind = codebook.config, codebook.indicator
        M, K, J = self.M, self.K, self.J = cfg.M, cfg.K, cfg.J
        self.d = d = ind.max_row_degree
        self.slot_users = np.full((K, d), J)  # (K, d) user on each slot
        for k, row in enumerate(ind.F):
            self.slot_users[k, : row.sum()] = np.flatnonzero(row)
        # (d, M^d) message of each slot in every combination; slot 0 most significant
        self.slot_index = tuple_digits(np.arange(M**d), M, d).T.copy()
        # candidate noiseless resource values (K, M^d) from each slot's codewords
        entries = np.concatenate([codebook.entries, np.zeros((1, K, M), dtype=complex)])
        slot_words = entries[self.slot_users, np.arange(K)[:, None]]
        self.sums = np.zeros((K, M**d), dtype=complex)
        for slot in range(d):
            self.sums = self.sums + slot_words[:, slot, self.slot_index[slot]]
        # (J, N) flat resource * d + slot positions of each user, ascending
        # resource; phantom slots sort last and are dropped
        order = np.argsort(self.slot_users.reshape(-1), kind="stable")
        self.edges = order[: J * cfg.N].reshape(J, cfg.N)


def _mpa_posteriors(received: np.ndarray, codebook: Codebook, ch: ChannelRealization,
                    cfg: MpaConfig, graph: _FactorGraph | None = None) -> np.ndarray:
    """Batched message passing: received (B, K) complex -> posteriors (B, J, M)."""
    g = graph if graph is not None else _FactorGraph(codebook)
    B = received.shape[0]
    M, K, d = g.M, g.K, g.d
    n0 = max(ch.n0, N0_FLOOR)
    reduce_ = np.max if cfg.max_log else _logsumexp

    # channel metric of every combination on every resource: (B, K, M^d)
    phi = -np.abs(received[:, :, None] - ch.h[:, None] * g.sums[None]) ** 2 / n0
    # user-to-resource (v) and resource-to-user messages per (resource, slot),
    # uniform start; v4 and r4 are (B, K, d, M) views
    v, r_msg = np.zeros((2, B, K * d, M))
    v4, r4 = v.reshape(B, K, d, M), r_msg.reshape(B, K, d, M)

    for _ in range(cfg.n_iter):
        # resource-to-user: combine channel metric with other users' messages
        total = phi.copy()
        for slot in range(d):
            total += np.take(v4[:, :, slot], g.slot_index[slot], axis=2)
        cube = total.reshape((B, K) + (M,) * d)
        for slot in range(d):
            excl = cube - v4[:, :, slot].reshape((B, K) + (1,) * slot + (M,) + (1,) * (d - 1 - slot))
            r4[:, :, slot] = reduce_(excl, axis=tuple(a for a in range(2, d + 2) if a != 2 + slot))
        # user-to-resource: sum of the other resources' messages, normalized
        incoming = r_msg[:, g.edges]  # (B, J, N, M)
        msg = incoming.sum(axis=2, keepdims=True) - incoming
        msg -= msg.max(axis=3, keepdims=True)
        v[:, g.edges] = cfg.damping * v[:, g.edges] + (1 - cfg.damping) * msg

    # posteriors from the final resource-to-user messages
    tot = r_msg[:, g.edges].sum(axis=2)
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
                  points: np.ndarray | None = None, guard: int = 1_000_000) -> np.ndarray:
    """Batched exhaustive joint ML: received (B, K) -> decisions (B, J)."""
    cfg = codebook.config
    if cfg.M**cfg.J > guard:
        raise SearchSpaceError(f"ML search over {cfg.M**cfg.J} tuples exceeds guard {guard}")
    pts = points if points is not None else superimposed_constellation(codebook, guard)
    faded = ch.h[None, :] * pts
    B = received.shape[0]
    best_idx = np.zeros(B, dtype=np.int64)
    block = max(1, 2**22 // max(pts.shape[0], 1))
    for a in range(0, B, block):
        r_blk = received[a : a + block]
        d2 = (np.abs(r_blk[:, None, :] - faded[None, :, :]) ** 2).sum(axis=2)
        # first occurrence = lowest tuple index
        best_idx[a : a + block] = np.argmin(d2, axis=1)
    return tuple_digits(best_idx, cfg.M, cfg.J)


def ml_detect(received, codebook: Codebook, ch: ChannelRealization, guard: int = 1_000_000) -> np.ndarray:
    """Joint maximum-likelihood message tuple for one received vector.

    Minimizes ||r - diag(h) sum_j x_{j,m_j}||^2 over all M^J tuples; ties are
    broken toward the lowest tuple index (user 0 most significant).
    """
    return _ml_decisions(_received_vector(received, codebook), codebook, ch, guard=guard)[0]


def mpa_complexity(cfg: MpaConfig, ind: IndicatorMatrix, alphabet_size: int) -> int:
    """Operation-count model N_iter * K * d_f^2 * M^d_f of the detector."""
    df = ind.max_row_degree
    if not ind.is_regular:
        warnings.warn(
            f"irregular row degrees {ind.row_degrees.tolist()}; using max degree {df}",
            stacklevel=2,
        )
    return int(cfg.n_iter * ind.n_resources * df**2 * alphabet_size**df)
