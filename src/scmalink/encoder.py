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
that codebook. The training loop keeps its own differentiable encoding in the
generator domain, one user at a time: that loop is the fastest exact scatter
measured. One stacked product with a single np.add.at scatter gives the same
bits but takes 1.4-2x as long per forward at batch 1000, and a gather from a
codeword table is slower than the loop too. A product with a 0/1 placement
matrix (one GEMM for every user) ran 1.7x faster at batch 1000 and matched on
the Huawei graph, but it sums in BLAS's order: it differed from the loop on
93 of 300 random graphs with K <= 6 and J <= 8. The generator gradient
scatters nothing, so it takes one stacked product for all users.
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

    def user_energies(self) -> np.ndarray:
        """Per-user average codeword energy (1/M) sum_m ||gbar_j b_m||^2."""
        splits = np.einsum("jab,bm->jam", self.gbar, build_bit_matrix(self.config.M))
        return (splits**2).sum(axis=(1, 2)) / self.config.M


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
    """Scale each user's generator so its average codeword energy is 1."""
    energies = gen.user_energies()
    if np.any(energies == 0):
        dead = np.flatnonzero(energies == 0).tolist()
        raise DegenerateCodebookError(f"users {dead} have all-zero generators")
    scale = 1.0 / np.sqrt(energies)
    return GeneratorSet(gbar=gen.gbar * scale[:, None, None], config=gen.config)


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
