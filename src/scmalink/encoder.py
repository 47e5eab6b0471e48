"""Linear multi-user SCMA encoder.

Each user's encoder is a single real matrix gbar_j of shape (2N, log2 M)
mapping a +/-1 bit vector to the stacked real/imaginary parts of its
N-dimensional complex symbol: first N rows are the real parts, last N rows
the imaginary parts. These matrices are the trainable encoder parameters.

A user's codebook is X_j = V_j G_j B. Only G_j is a parameter: the bit matrix
B follows from M (core.build_bit_matrix) and the placement V_j from the
indicator's (J, N) supports, so no caller passes either. The functions here
build B themselves and place all users with one stacked gather or scatter.

codeword_table materializes the generators as a sparse Codebook, and
superimpose turns a batch of message tuples into the downlink signal through
that codebook. Training encodes the same way: its forward pass is
split_real(superimpose(learned_codebook(...), messages)), so the codebook that
train writes is the encoding its decoder was trained on, bit for bit. The
generator gradient scatters nothing, so it takes one stacked product for all
users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Codebook,
    ConfigError,
    DegenerateCodebookError,
    IndicatorMatrix,
    ShapeError,
    SystemConfig,
    build_bit_matrix,
)


@dataclass(frozen=True)
class GeneratorSet:
    """The J trainable generator matrices, stacked as one (J, 2N, log2 M) array."""

    gbar: np.ndarray
    config: SystemConfig

    def __post_init__(self):
        g = np.asarray(self.gbar, dtype=float)
        expected = (self.config.J, 2 * self.config.N, self.config.bits_per_symbol)
        if g.shape != expected:
            raise ShapeError(f"generator stack shape {g.shape}, expected {expected}")
        if not np.all(np.isfinite(g)):
            raise ConfigError("generator entries must be finite")
        object.__setattr__(self, "gbar", g)

    def norms(self) -> np.ndarray:
        """Per-user Frobenius norm ||gbar_j||_F. Because B B^T = M I, its square
        is the user's average codeword energy (1/M) sum_m ||gbar_j b_m||^2.
        An all-zero user raises DegenerateCodebookError."""
        norms = np.array([np.linalg.norm(g) for g in self.gbar])
        if np.any(norms == 0):
            raise DegenerateCodebookError(f"users {np.flatnonzero(norms == 0).tolist()} have all-zero generators")
        return norms


def superimpose(codebook: Codebook, msgs) -> np.ndarray:
    """Noiseless downlink signal: (B, J) message indices -> (B, K) complex.

    Row b is the sum of every user's codeword for its message in row b,
    added user by user in ascending order starting from zero.
    """
    msgs = np.asarray(msgs)
    cfg = codebook.config
    if msgs.ndim != 2 or msgs.shape[1] != cfg.J:
        raise ShapeError(f"expected (batch, {cfg.J}) message indices, got shape {msgs.shape}")
    s = np.zeros((msgs.shape[0], cfg.K), dtype=complex)
    for j in range(cfg.J):
        s += codebook.entries[j].T[msgs[:, j]]
    return s


def normalize(gen: GeneratorSet) -> GeneratorSet:
    """Divide each user's generator by its norm: unit average codeword energy."""
    return GeneratorSet(gbar=gen.gbar / gen.norms()[:, None, None], config=gen.config)


def init_generators(codebook: Codebook) -> GeneratorSet:
    """Least-squares generator fit to an existing codebook.

    Uses G_j = C_j B^T / M, where C_j is user j's codebook with the zero
    resources removed: since B B^T = M I, this is C_j B^T (B B^T)^{-1}.
    Exact (zero residual) whenever the source codebook is linear in the bit
    vector, which holds iff complementary messages carry negated codewords.
    """
    M = codebook.config.M
    c = np.take_along_axis(codebook.entries, codebook.indicator.supports[:, :, None], axis=1)  # (J, N, M)
    g = c @ build_bit_matrix(M).T / M
    return GeneratorSet(gbar=np.concatenate([g.real, g.imag], axis=1), config=codebook.config)


def codeword_table(gen: GeneratorSet, ind: IndicatorMatrix) -> Codebook:
    """Materialize the full sparse codebook X_j = V_j G_j B for every user."""
    cfg = gen.config
    ind.check_fits(cfg)
    entries = np.zeros((cfg.J, cfg.K, cfg.M), dtype=complex)
    g = gen.gbar[:, : cfg.N] + 1j * gen.gbar[:, cfg.N :]  # G_j: real rows + i * imaginary rows
    words = g @ build_bit_matrix(cfg.M)  # (J, N, M)
    np.put_along_axis(entries, ind.supports[:, :, None], words, axis=1)
    return Codebook(entries=entries, config=cfg, indicator=ind)
