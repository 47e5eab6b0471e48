"""Core SCMA domain types: system dimensions, factor-graph structure and codecs.

Conventions used throughout the package:
  * bit vectors are +/-1 valued, row 1 (index 0) is the most significant bit,
    -1 encodes binary 0 and +1 encodes binary 1;
  * message indices are 0-based in code, so message m corresponds to the m-th
    column of the bit matrix and the m-th column of a user codebook.

nearest_points is the one exact search over the superimposed constellation,
shared by ML detection and the MED. A real GEMM screens every point, in
float32 for a batch of at least SEARCH_BLOCK queries whose magnitudes lie in
a range that keeps float32 clear of overflow and underflow, else in float64;
only rows whose runner-up lies within a rounding bound derived for that
dtype are re-checked with ordered_distances, which sums the real-split
squared differences in float64 one dimension at a time in index order. Its
results are those of a plain per-pair loop that keeps the first minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest superimposed constellation (M^J points) an exhaustive search builds
SEARCH_GUARD = 1_000_000

# query rows per nearest_points block: 2 MB of float32 screen values against
# the 4096-point Huawei constellation, one core's L2 cache. On a 2-core Xeon,
# 9 alternating 12 s benchmark pairs read evaluate.ml at 1.53M bits/s with
# either 128 or 64 rows and evaluate.med at 226M pairs/s with 128 against
# 218M with 64. The screen buffer is allocated once per search, as fresh
# arrays per step can be handed back to the OS and faulted in again
SEARCH_BLOCK = 128


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
    by user j; row j of the (J, N) supports array lists those resources in
    ascending order, which is where user j's N-dimensional symbols are placed.
    """

    F: np.ndarray
    supports: np.ndarray  # (J, N) int, per-user ascending resource indices
    row_degrees: np.ndarray

    @property
    def n_resources(self) -> int:
        return self.F.shape[0]

    @property
    def n_users(self) -> int:
        return self.F.shape[1]

    @property
    def n_nonzero(self) -> int:
        return self.supports.shape[1]

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
    supports = np.nonzero(F.T)[1].reshape(F.shape[1], -1)  # row-major: j, then k ascending
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
        if not np.all(np.isfinite(e)):
            raise ConfigError("codebook entries must be finite")
        object.__setattr__(self, "entries", e)
        self.validate_support()

    def validate_support(self):
        """Reject energy off the supports, naming the first (user, resource)."""
        bad = (self.indicator.F.T == 0) & np.any(self.entries != 0, axis=2)  # (J, K)
        if bad.any():
            j, k = np.argwhere(bad)[0].tolist()  # row-major: lowest j, then lowest k
            raise ConfigError(
                f"user {j} has energy on resource {k} outside its support "
                f"{tuple(self.indicator.supports[j].tolist())}"
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


def superimposed_constellation(codebook: Codebook) -> np.ndarray:
    """All M^J sums of one codeword per user, shape (M^J, K).

    Row order is lexicographic in the message tuple with user 0 as the most
    significant digit, i.e. row index = sum_j m_j * M^(J-1-j).
    """
    J, M = codebook.config.J, codebook.config.M
    size = M**J
    if size > SEARCH_GUARD:
        raise SearchSpaceError(
            f"superimposed constellation has {size} points, guard is {SEARCH_GUARD}; "
            "use a sampled lower-bound search instead"
        )
    K = codebook.config.K
    # (J, M, K) codewords as rows, C-ordered, so every sum and the result are
    # C-ordered too and nearest_points can view them as interleaved floats
    words = np.ascontiguousarray(codebook.entries.transpose(0, 2, 1))
    pts = np.zeros((1, K), dtype=complex)
    for j in range(J):
        pts = (pts[:, None, :] + words[j][None, :, :]).reshape(-1, K)
    return pts


def ordered_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances ||a_i - b_i||^2 of paired complex rows, summed over
    the real-split dimensions (real parts, then imaginary parts) one at a
    time in index order, as a plain per-pair loop sums them."""
    diff = a - b
    return np.cumsum(np.square(np.concatenate([diff.real, diff.imag], axis=1)), axis=1)[:, -1]


def nearest_points(queries: np.ndarray, points: np.ndarray, h: np.ndarray | None = None,
                   after_self: bool = False) -> np.ndarray:
    """Index (B,) of the nearest faded point h * points (n, K) to each complex
    query (B, K), by ordered_distances; among equal distances the lowest
    index wins. h defaults to ones. With after_self, query i considers only
    the points j > i (queries are points[:B], B < n): the upper half of a
    pair search.

    Each block of SEARCH_BLOCK queries is screened with one real GEMM over
    interleaved float views: ||q - h p||^2 - ||q||^2 = |h p|^2 + x . p with
    x = -2 conj(h) q. A row whose runner-up screen value lies within the
    rounding bound `slack` of its minimum is a near tie: its points within
    that bound are recomputed exactly by ordered_distances, in ascending
    index order, and the first minimum wins. Every other row keeps the
    screen's argmin, which the bound proves to be the exact winner.

    The screen runs in float32 when the call has at least SEARCH_BLOCK
    queries, every S = ||q||^2 + max_n |h p_n|^2 is at least 2^-40, and the
    largest of S, x_i^2 and p_i^2 is at most 2^100; otherwise, and so for
    every single-vector call, it runs in float64. x, p and w = |h p|^2 are
    built in float64 and rounded once to the screen dtype.

    Rounding bound. Let D = 2K, u = eps / 2 of the screen dtype and
    u64 = 2^-53. A point's ordered distance (its h p rounded as complex
    products, D rounded squares summed in order) is within
    E_o = (2D + 13) u64 S of the real ||q - h p||^2. If its screen value
    plus ||q||^2 is within E_s of it too, the exact winner screens at most
    2 (E_s + E_o) above the screen's minimum, and a runner-up beyond that
    proves the argmin. In float64, E_s = (2D + 9) u64 S: conj(h) q,
    |h|^2 |p|^2 and a dot product of D terms in any order. In float32,
    sum_i |x_i p_i| <= 2 sum_k |q_k| |h_k p_k| <= S and w <= S, so rounding
    x and p costs 2u S, the dot product of D terms in any order
    gamma_D S <= 1.01 D u S (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1; K < 2^16), rounding w u S and adding it to the dot
    product 2u S: (1.01 D + 5) u S, plus (D + 10) u64 S of float64 error in
    x and w and second-order terms. Each underflowing rounding, flushed or
    gradual, errs by at most tiny32 = 2^-126, so underflow adds at most
    2D tiny32 (max|x| + max|p| + 2) < D 2^-73, below D 2^-9 u S once
    S >= 2^-40 and max|x|, max|p| <= 2^50; with no lower limit on S, that
    term would make every point a near tie. Every product and partial sum
    of the screen is at most about S, every screen value about 2S, so below
    2^102, and every operand 2^50, far below float32's overflow at 2^128.
    So E_s <= (2D + 16) u S in either dtype, E_o <= (2D + 16) u64 S, and
    slack = 2 (2D + 16) (u + u64) S = (4K + 16) (eps + eps64) S, which in
    float64 is (8K + 32) eps64 S; tiny(dt) covers float64 underflow.
    """
    n, K = points.shape
    h = np.ones(K) if h is None else h
    pf = np.ascontiguousarray(points).view(np.float64)  # (n, 2K) re, im interleaved
    qf = ((-2 * np.conj(h)) * queries).view(np.float64)  # (B, 2K) x = -2 conj(h) q
    w = np.square(pf) @ np.repeat(np.abs(h) ** 2, 2)  # |h p|^2 per point
    scale = np.square(np.abs(queries)).sum(axis=1) + w.max()  # S per query
    dt = (np.float32 if len(queries) >= SEARCH_BLOCK and scale.min() >= 2.0**-40
          and max(scale.max(), np.abs(qf).max() ** 2, np.abs(pf).max() ** 2) <= 2.0**100
          else np.float64)
    qf, pf, w = qf.astype(dt, copy=False), pf.astype(dt, copy=False), w.astype(dt, copy=False)
    slack = (4 * K + 16) * (np.finfo(dt).eps + np.finfo(float).eps) * scale + np.finfo(dt).tiny
    best = np.empty(len(queries), dtype=np.int64)
    buf = np.empty(min(SEARCH_BLOCK, len(queries)) * n, dtype=dt)
    for a in range(0, len(queries), SEARCH_BLOCK):
        b = min(SEARCH_BLOCK, len(queries) - a)
        c0 = a if after_self else 0  # first screened point
        s = np.matmul(qf[a : a + b], pf[c0:].T, out=buf[: b * (n - c0)].reshape(b, n - c0))
        s += w[c0:]
        if after_self:  # mask the points j <= i of the diagonal block
            np.copyto(s[:, :b], np.inf, where=np.tri(b, dtype=bool))
        rows = np.arange(b)
        idx = np.argmin(s, axis=1)
        low = s[rows, idx]
        thr = low + slack[a : a + b]
        s[rows, idx] = np.inf
        near = np.flatnonzero(s.min(axis=1) <= thr)
        if near.size:
            s[near, idx[near]] = low[near]
            i, j = np.nonzero(s[near] <= thr[near, None])  # row-major: columns ascend
            e = ordered_distances(queries[a + near[i]], h * points[c0 + j])
            order = np.lexsort((e, i))  # stable: the lowest column leads its ties
            idx[near] = j[order[np.r_[True, i[order][1:] != i[order][:-1]]]]
        best[a : a + b] = c0 + idx
    return best


def tuple_digits(index, alphabet_size: int, n_users: int) -> np.ndarray:
    """Per-user messages of superimposed-constellation row indices.

    Inverse of the superimposed_constellation row order: index shape (...,)
    gives digits of shape (..., n_users), user 0 the most significant.
    """
    powers = alphabet_size ** np.arange(n_users - 1, -1, -1)
    return (np.asarray(index)[..., None] // powers) % alphabet_size
