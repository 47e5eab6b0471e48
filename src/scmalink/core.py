"""Core SCMA domain types: system dimensions, factor-graph structure and codecs.

Conventions used throughout the package:
  * bit vectors are +/-1 valued, row 1 (index 0) is the most significant bit,
    -1 encodes binary 0 and +1 encodes binary 1;
  * message indices are 0-based in code, so message m corresponds to the m-th
    column of the bit matrix and the m-th column of a user codebook.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# query rows per squared_distance_blocks block (8 MB against the 4096-point
# Huawei constellation); its buffers are allocated once per search, as fresh
# 8 MB arrays per step can be handed back to the OS and faulted in again
SEARCH_BLOCK = 256


class ScmaError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ScmaError):
    """Invalid system or algorithm configuration."""


class ShapeError(ScmaError):
    """Array argument has the wrong shape or length."""


class DegenerateCodebookError(ScmaError):
    """A user codebook (or generator) is identically zero."""


class SearchSpaceError(ScmaError):
    """An exhaustive enumeration would exceed its guard size."""


class DegenerateCodebookWarning(UserWarning):
    """Emitted when an all-zero user codebook is constructed."""


def is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions of one SCMA configuration.

    n_users (J) data streams share n_resources (K) orthogonal resources; each
    codeword has n_nonzero (N) nonzero entries drawn from an alphabet of
    alphabet_size (M) messages.
    """

    n_users: int
    n_resources: int
    n_nonzero: int
    alphabet_size: int

    def __post_init__(self):
        if self.n_users < 1 or self.n_resources < 1 or self.n_nonzero < 1:
            raise ConfigError("user/resource/nonzero counts must be positive")
        # N <= K (equality allowed: degenerate dense configs are used as
        # oracles in tests, e.g. single-resource BPSK superpositions)
        if self.n_nonzero > self.n_resources:
            raise ConfigError(
                f"nonzero entries per codeword ({self.n_nonzero}) cannot "
                f"exceed resource count ({self.n_resources})"
            )
        if self.alphabet_size < 2 or not is_power_of_two(self.alphabet_size):
            raise ConfigError(
                f"alphabet size must be a power of two >= 2, got {self.alphabet_size}"
            )

    # conventional short names
    @property
    def J(self) -> int:
        return self.n_users

    @property
    def K(self) -> int:
        return self.n_resources

    @property
    def N(self) -> int:
        return self.n_nonzero

    @property
    def M(self) -> int:
        return self.alphabet_size

    @property
    def bits_per_symbol(self) -> int:
        return int(round(np.log2(self.alphabet_size)))

    @property
    def overloading(self) -> float:
        """Users per resource (lambda)."""
        return self.n_users / self.n_resources


def build_bit_matrix(alphabet_size: int) -> np.ndarray:
    """All +/-1 bit patterns of log2(M) bits as columns, ascending by value.

    Column m holds the bits of integer m, most significant bit in row 0,
    with -1 for binary 0 and +1 for binary 1. Rows are mutually orthogonal:
    B @ B.T == M * I exactly (integer arithmetic).
    """
    if not is_power_of_two(alphabet_size) or alphabet_size < 2:
        raise ConfigError(f"alphabet size must be a power of two >= 2, got {alphabet_size}")
    n_bits = int(round(np.log2(alphabet_size)))
    cols = np.arange(alphabet_size)
    shifts = np.arange(n_bits - 1, -1, -1)  # MSB first
    bits = (cols[None, :] >> shifts[:, None]) & 1
    return (2 * bits - 1).astype(np.int64)


@dataclass(frozen=True)
class IndicatorMatrix:
    """Sparse resource-occupancy structure of the J user codebooks.

    F is the K x J binary matrix whose column j marks the resources occupied
    by user j; supports[j] lists those resources in ascending order, which is
    where user j's N-dimensional symbols are placed.
    """

    F: np.ndarray
    supports: tuple  # per-user ascending resource indices
    row_degrees: np.ndarray

    @property
    def n_resources(self) -> int:
        return self.F.shape[0]

    @property
    def n_users(self) -> int:
        return self.F.shape[1]

    @property
    def n_nonzero(self) -> int:
        return len(self.supports[0])

    @property
    def is_regular(self) -> bool:
        return bool(np.all(self.row_degrees == self.row_degrees[0]))

    @property
    def max_row_degree(self) -> int:
        return int(self.row_degrees.max())


def build_indicator(F) -> IndicatorMatrix:
    """Validate an occupancy matrix and derive the per-user supports."""
    F = np.asarray(F)
    if F.ndim != 2:
        raise ShapeError(f"indicator matrix must be 2-d, got shape {F.shape}")
    if not np.all((F == 0) | (F == 1)):
        raise ConfigError("indicator matrix entries must be 0/1")
    F = F.astype(np.int64)
    col_weights = F.sum(axis=0)
    if not np.all(col_weights == col_weights[0]):
        raise ConfigError(f"ragged column weights {col_weights.tolist()}: every user must occupy the same number of resources")
    if col_weights[0] == 0:
        raise ConfigError("indicator matrix has empty columns")
    supports = tuple(tuple(int(r) for r in np.flatnonzero(F[:, j])) for j in range(F.shape[1]))
    return IndicatorMatrix(F=F, supports=supports, row_degrees=F.sum(axis=1))


def paper_indicator_4x6() -> IndicatorMatrix:
    """The standard 4-resource / 6-user occupancy pattern (d_f = 3, N = 2)."""
    return build_indicator(
        [
            [0, 1, 1, 0, 1, 0],
            [1, 0, 1, 0, 0, 1],
            [0, 1, 0, 1, 0, 1],
            [1, 0, 0, 1, 1, 0],
        ]
    )


@dataclass(frozen=True)
class Codebook:
    """J sparse complex codebooks: entries[j][:, m] is user j's m-th codeword."""

    entries: np.ndarray  # (J, K, M) complex
    config: SystemConfig
    indicator: IndicatorMatrix

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        expected = (self.config.J, self.config.K, self.config.M)
        if e.shape != expected:
            raise ShapeError(f"codebook entries shape {e.shape}, expected {expected}")
        object.__setattr__(self, "entries", e)
        self.validate_support()

    def validate_support(self):
        for j in range(self.config.J):
            off = np.setdiff1d(np.arange(self.config.K), self.indicator.supports[j])
            if off.size and np.any(self.entries[j][off] != 0):
                k_bad = off[np.any(self.entries[j][off] != 0, axis=1)][0]
                raise ConfigError(
                    f"user {j} has energy on resource {int(k_bad)} outside its support {self.indicator.supports[j]}"
                )

    def user_energies(self) -> np.ndarray:
        """Average codeword energy per user."""
        return (np.abs(self.entries) ** 2).sum(axis=1).mean(axis=1)

    def normalized(self) -> "Codebook":
        """Rescale each user to unit average codeword energy."""
        energies = self.user_energies()
        if np.any(energies == 0):
            raise DegenerateCodebookError(f"users {np.flatnonzero(energies == 0).tolist()} have all-zero codebooks")
        scaled = self.entries / np.sqrt(energies)[:, None, None]
        return Codebook(entries=scaled, config=self.config, indicator=self.indicator)


def superimposed_constellation(codebook: Codebook, guard: int = 1_000_000) -> np.ndarray:
    """All M^J sums of one codeword per user, shape (M^J, K).

    Row order is lexicographic in the message tuple with user 0 as the most
    significant digit, i.e. row index = sum_j m_j * M^(J-1-j).
    """
    J, M = codebook.config.J, codebook.config.M
    size = M**J
    if size > guard:
        raise SearchSpaceError(
            f"superimposed constellation has {size} points, guard is {guard}; "
            "use a sampled lower-bound search instead"
        )
    pts = np.zeros((1, codebook.config.K), dtype=complex)
    for j in range(J):
        pts = (pts[:, None, :] + codebook.entries[j].T[None, :, :]).reshape(-1, codebook.config.K)
    return pts


def squared_distance_blocks(queries: np.ndarray, points: np.ndarray):
    """Squared distances (b, n) from each SEARCH_BLOCK rows of real queries
    (B, D) to real points (n, D), in row order. Each is summed over the D
    dimensions one at a time in index order, as a plain per-pair loop does.
    Every block is the same buffer: use it before asking for the next one."""
    buf = np.empty((2, min(SEARCH_BLOCK, queries.shape[0]), points.shape[0]))
    for a in range(0, queries.shape[0], SEARCH_BLOCK):
        q = queries[a : a + SEARCH_BLOCK]
        d2, diff = buf[:, : q.shape[0]]
        d2.fill(0)
        for d in range(points.shape[1]):
            d2 += np.square(np.subtract(q[:, d, None], points[:, d], out=diff), out=diff)
        yield d2


def tuple_digits(index, alphabet_size: int, n_users: int) -> np.ndarray:
    """Per-user messages of superimposed-constellation row indices.

    Inverse of the superimposed_constellation row order: index shape (...,)
    gives digits of shape (..., n_users), user 0 the most significant.
    """
    powers = alphabet_size ** np.arange(n_users - 1, -1, -1)
    return (np.asarray(index)[..., None] // powers) % alphabet_size
