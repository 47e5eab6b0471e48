"""Multiuser detection: Max-Log MPA over the factor graph plus an ML oracle.

The message-passing detector exchanges log-domain messages between resource
nodes and user nodes of the sparse occupancy graph. The default update is
max-sum (Max-Log); exact sum-product is available as a config option. The ML
oracle enumerates the entire superimposed constellation and is intended for
small instances and cross-checks.
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
    """Precomputed per-resource combination tables for one codebook."""

    def __init__(self, codebook: Codebook):
        ind = codebook.indicator
        M = codebook.config.M
        self.M = M
        self.K = codebook.config.K
        self.J = codebook.config.J
        self.users = []  # users per resource, ascending
        self.sums = []  # (M^d,) complex: candidate noiseless resource values
        self.degrees = []
        for k in range(self.K):
            users_k = ind.users_on_resource(k)
            d = users_k.size
            # slot 0 is the most significant digit of the combo index
            vals = np.zeros((M,) * d, dtype=complex) if d else np.zeros((), dtype=complex)
            for slot, j in enumerate(users_k):
                shape = [1] * d
                shape[slot] = M
                vals = vals + codebook.entries[j][k].reshape(shape)
            self.users.append(users_k)
            self.degrees.append(d)
            self.sums.append(vals.reshape(-1))
        # message index of each slot for every combo of a degree-d resource
        self.slot_index = [
            list(tuple_digits(np.arange(M**d), M, d).T.copy()) for d in self.degrees
        ]
        # per-user list of (resource, slot) edges
        self.edges = [[] for _ in range(self.J)]
        for k in range(self.K):
            for slot, j in enumerate(self.users[k]):
                self.edges[j].append((k, slot))


def _mpa_posteriors(received: np.ndarray, codebook: Codebook, ch: ChannelRealization,
                    cfg: MpaConfig, graph: _FactorGraph | None = None) -> np.ndarray:
    """Batched message passing: received (B, K) complex -> posteriors (B, J, M)."""
    g = graph if graph is not None else _FactorGraph(codebook)
    B = received.shape[0]
    M, K, J = g.M, g.K, g.J
    n0 = max(ch.n0, N0_FLOOR)
    reduce_ = np.max if cfg.max_log else _logsumexp

    # channel metrics per resource: (B, M^d)
    phi = [
        -np.abs(received[:, k, None] - ch.h[k] * g.sums[k][None, :]) ** 2 / n0
        for k in range(K)
    ]
    # user-to-resource messages, uniform start
    v = [np.zeros((B, g.degrees[k], M)) for k in range(K)]
    r_msg = [np.zeros((B, g.degrees[k], M)) for k in range(K)]

    for _ in range(cfg.n_iter):
        # resource-to-user: combine channel metric with other users' messages
        for k in range(K):
            d = g.degrees[k]
            total = phi[k].copy()
            for slot in range(d):
                total += v[k][:, slot, :][:, g.slot_index[k][slot]]
            cube = total.reshape((B,) + (M,) * d)
            for slot in range(d):
                excl = cube - np.moveaxis(
                    v[k][:, slot, :].reshape((B, M) + (1,) * (d - 1)), 1, 1 + slot
                )
                axes = tuple(a for a in range(1, d + 1) if a != 1 + slot)
                r_msg[k][:, slot, :] = reduce_(excl, axis=axes) if axes else excl.reshape(B, M)
        # user-to-resource: sum of the other resources' messages, normalized
        for j in range(J):
            tot = np.zeros((B, M))
            for k, slot in g.edges[j]:
                tot += r_msg[k][:, slot, :]
            for k, slot in g.edges[j]:
                msg = tot - r_msg[k][:, slot, :]
                msg = msg - msg.max(axis=1, keepdims=True)
                v[k][:, slot, :] = cfg.damping * v[k][:, slot, :] + (1 - cfg.damping) * msg

    # posteriors from the final resource-to-user messages
    out = np.empty((B, J, M))
    for j in range(J):
        tot = np.zeros((B, M))
        for k, slot in g.edges[j]:
            tot += r_msg[k][:, slot, :]
        tot -= tot.max(axis=1, keepdims=True)
        p = np.exp(tot)
        out[:, j, :] = p / p.sum(axis=1, keepdims=True)
    return out


def mpa_detect(received, codebook: Codebook, ch: ChannelRealization, cfg: MpaConfig = MpaConfig()) -> PosteriorSet:
    """Per-user posteriors for one received vector; hard decision is argmax."""
    r = np.asarray(received, dtype=complex)
    if r.shape != (codebook.config.K,):
        raise ShapeError(f"received vector shape {r.shape}, expected ({codebook.config.K},)")
    probs = _mpa_posteriors(r[None, :], codebook, ch, cfg)[0]
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
    r = np.asarray(received, dtype=complex)
    if r.shape != (codebook.config.K,):
        raise ShapeError(f"received vector shape {r.shape}, expected ({codebook.config.K},)")
    return _ml_decisions(r[None, :], codebook, ch, guard=guard)[0]


def mpa_complexity(cfg: MpaConfig, ind: IndicatorMatrix, alphabet_size: int) -> int:
    """Operation-count model N_iter * K * d_f^2 * M^d_f of the detector."""
    df = ind.max_row_degree
    if not ind.is_regular:
        warnings.warn(
            f"irregular row degrees {ind.row_degrees.tolist()}; using max degree {df}",
            stacklevel=2,
        )
    return int(cfg.n_iter * ind.n_resources * df**2 * alphabet_size**df)
