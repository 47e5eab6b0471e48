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
dtype are re-checked, together, with ordered_distances, which sums the
real-split squared differences in float64 one dimension at a time in index
order. Its results are those of a plain per-pair loop that keeps the first minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# largest superimposed constellation (M^J points) an exhaustive search builds
SEARCH_GUARD = 1_000_000

# query rows per nearest_points block: 2 MB of float32 screen values against
# the 4096-point Huawei constellation, one core's L2 cache. On a 2-core Xeon,
# 9 alternating 12 s benchmark pairs read evaluate.ml at 1.53M bits/s with
# either 128 or 64 rows and evaluate.med at 226M pairs/s with 128 against
# 218M with 64. The screen buffer and mask are made once per search, as fresh
# arrays per step can be handed back to the OS and faulted in again
SEARCH_BLOCK = 128


class ScmaError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ScmaError):
    """Invalid system or algorithm configuration."""


class ShapeError(ScmaError):
    """Array argument has the wrong shape or length."""


class DegenerateCodebookError(ScmaError):
    """A user codebook (or generator) is identically zero, or its energy leaves float64's range."""


class SearchSpaceError(ScmaError):
    """An exhaustive enumeration would exceed its guard size."""


def alphabet_bits(alphabet_size: int) -> int:
    """log2 M, the bits a message carries; ConfigError unless M is a power of two in [2, 2^16]."""
    if alphabet_size < 2 or alphabet_size & (alphabet_size - 1):
        raise ConfigError(f"alphabet size must be a power of two >= 2, got {alphabet_size}")
    if alphabet_size > 2**16:
        raise ConfigError(f"alphabet size must be at most 2^16, got {alphabet_size}")
    return int(alphabet_size).bit_length() - 1


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
        alphabet_bits(self.alphabet_size)

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
        return alphabet_bits(self.alphabet_size)


def build_bit_matrix(alphabet_size: int) -> np.ndarray:
    """All +/-1 bit patterns of log2(M) bits as columns, ascending by value.

    Column m holds the bits of integer m, most significant bit in row 0, as
    float64 -1 for binary 0 and +1 for binary 1. Rows are mutually orthogonal:
    B @ B.T == M * I exactly, as every sum is an integer no larger than 2^16.
    """
    n_bits = alphabet_bits(alphabet_size)
    cols = np.arange(alphabet_size)
    shifts = np.arange(n_bits - 1, -1, -1)  # MSB first
    bits = (cols[None, :] >> shifts[:, None]) & 1
    return 2.0 * bits - 1.0


@dataclass(frozen=True)
class IndicatorMatrix:
    """Sparse resource-occupancy structure of the J user codebooks.

    F is the K x J binary matrix whose column j marks the resources occupied
    by user j. Construction checks that F is 2-d, 0/1 and that every column
    has the same non-zero weight N, stores it as int64, and derives the
    (J, N) supports array: row j lists user j's resources in ascending order,
    which is where user j's N-dimensional symbols are placed.
    """

    F: np.ndarray
    supports: np.ndarray = field(init=False)  # (J, N) int, per-user ascending resource indices

    def __post_init__(self):
        F = np.asarray(self.F)
        if F.ndim != 2 or F.size == 0:
            raise ShapeError(f"indicator matrix must be 2-d and non-empty, got shape {F.shape}")
        if not np.all((F == 0) | (F == 1)):
            raise ConfigError("indicator matrix entries must be 0/1")
        F = F.astype(np.int64)
        col_weights = F.sum(axis=0)
        if not np.all(col_weights == col_weights[0]):
            raise ConfigError(f"ragged column weights {col_weights.tolist()}: every user must occupy the same number of resources")
        if col_weights[0] == 0:
            raise ConfigError("indicator matrix has empty columns")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "supports", np.nonzero(F.T)[1].reshape(F.shape[1], -1))  # j, then k ascending

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
    def max_row_degree(self) -> int:
        return int(self.F.sum(axis=1).max())

    def check_fits(self, cfg: SystemConfig) -> None:
        """Raise ShapeError unless this graph has the J, K and N of cfg."""
        dims, want = (self.n_users, self.n_resources, self.n_nonzero), (cfg.J, cfg.K, cfg.N)
        if dims != want:
            raise ShapeError(f"indicator matrix (J, K, N) = {dims} does not match the system's {want}")


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
        self.indicator.check_fits(self.config)
        object.__setattr__(self, "entries", e)
        # reject energy off the supports, naming the first (user, resource)
        bad = (self.indicator.F.T == 0) & np.any(e != 0, axis=2)  # (J, K)
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
        """Rescale each user to unit average codeword energy.

        DegenerateCodebookError names the users it cannot rescale: all-zero
        codewords, and energy outside float64's range, where |x|^2 underflows
        to 0 or overflows to inf (an error here, not a RuntimeWarning)."""
        with np.errstate(over="ignore"):
            energies = self.user_energies()
        all_zero = np.all(self.entries == 0, axis=(1, 2))
        for bad, what in ((all_zero, "have all-zero codebooks"),
                          ((energies == 0) & ~all_zero, "have nonzero codewords whose energy underflows to 0"),
                          (energies == np.inf, "have codeword energy that overflows to inf")):
            if bad.any():
                raise DegenerateCodebookError(f"users {np.flatnonzero(bad).tolist()} {what}")
        scaled = self.entries / np.sqrt(energies)[:, None, None]
        return Codebook(entries=scaled, config=self.config, indicator=self.indicator)


def superimposed_constellation(codebook: Codebook) -> np.ndarray:
    """All M^J sums of one codeword per user, shape (M^J, K).

    Row order is lexicographic in the message tuple with user 0 as the most
    significant digit, i.e. row index = sum_j m_j * M^(J-1-j).
    """
    size = codebook.config.M ** codebook.config.J
    if size > SEARCH_GUARD:
        raise SearchSpaceError(
            f"superimposed constellation has {size} points, guard is {SEARCH_GUARD}; "
            "MED and ML detection need at most that many, while Max-Log MPA "
            "detection and its BER run at any size"
        )
    return codeword_sums(codebook.entries.transpose(0, 2, 1))


def codeword_sums(words: np.ndarray) -> np.ndarray:
    """All M^n sums (M^n, K) of one word from each of n groups (n, M, K),
    group 0 the most significant digit, added in group order from zero. The
    words are copied C-ordered, so the sums are C-ordered too and
    nearest_points can view them as interleaved floats.

    Each step repeats every row M times and adds the group's words in place
    over the (rows, M, K) view, so one inner loop spans M K contiguous
    values. Broadcasting the rows against the words instead runs one inner
    loop of K values per (row, word) pair, 5,460 of them for the Huawei
    constellation. ndarray.repeat with a positional axis is the cheapest
    call of the step (0.3 us against 0.7 for np.repeat on a 2-core Xeon),
    which keeps the factor graph's three-step table as fast as the
    broadcast."""
    words = np.ascontiguousarray(words)
    _, M, K = words.shape
    sums = np.zeros((1, K), dtype=complex)
    for w in words:
        sums = sums.repeat(M, 0)
        grouped = sums.reshape(-1, M, K)
        grouped += w
    return sums


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
    interleaved floats: ||q - h p||^2 - ||q||^2 = |h p|^2 + x . p with
    x = -2 conj(h) q. A row whose runner-up screen value lies within the
    rounding bound `slack` of its minimum is a near tie: its points within
    that bound are recomputed exactly by ordered_distances, in ascending
    index order, and the first minimum wins. Every other row keeps the
    screen's argmin, which the bound proves to be the exact winner. Near
    rows' candidates are read by a flat, row-major index scan of their
    screen values, so columns ascend within each row, and re-checked at the
    end, or earlier if they would pass SEARCH_BLOCK * n. The threshold
    minimum + slack is rounded to the screen dtype, so that the scan
    compares in it: rounding down skips no screen value, and a value that
    rounding up admits lies beyond the bound and so cannot win.

    The screen runs in float32 when the call has at least SEARCH_BLOCK
    queries, every S = ||q||^2 + max_n |h p_n|^2 is at least 2^-40, and the
    largest of S, x_i^2 and p_i^2 is at most 2^100; otherwise, and so for
    every single-vector call, it runs in float64 on views of the queries and
    points and adds w = |h p|^2 after the GEMM. In float32, x, p and w are
    rounded once into the operands (x, 1) and (p, w), and the GEMM adds w.

    Rounding bound. Let D = 2K, u = eps / 2 of the screen dtype and
    u64 = 2^-53. A point's ordered distance (its h p rounded as complex
    products, D rounded squares summed in order) is within
    E_o = (2D + 13) u64 S of the real ||q - h p||^2. If its screen value
    plus ||q||^2 is within E_s of it too, the exact winner screens at most
    2 (E_s + E_o) above the screen's minimum, and a runner-up beyond that
    proves the argmin. In float64, E_s = (2D + 9) u64 S: conj(h) q,
    |h|^2 |p|^2 and a dot product of D terms in any order. In float32,
    sum_i |x_i p_i| <= 2 sum_k |q_k| |h_k p_k| <= S and w <= S, so the
    D + 1 terms of the augmented dot product sum to at most 2S in magnitude.
    Rounding x and p costs 2u S, rounding w u S, and the dot product in any
    order gamma_{D+1} 2S <= 2.02 (D + 1) u S (Higham, Accuracy and Stability
    of Numerical Algorithms, 3.1; K < 2^16): (2.02 D + 5.02) u S, plus
    (D + 10) u64 S of float64 error in x and w and second-order terms. Each
    underflowing rounding, flushed or gradual, errs by at most
    tiny32 = 2^-126, so underflow adds at most 2D tiny32 (max|x| + max|p| + 2)
    < D 2^-73, below D 2^-9 u S once S >= 2^-40 and max|x|, max|p| <= 2^50;
    with no lower limit on S, that term would make every point a near tie.
    Every product of the screen is at most about S and every partial sum about
    2S, so below 2^102, and every operand 2^50, far below float32's overflow
    at 2^128. So E_s <= (3D + 16) u S in either dtype, E_o <= (3D + 16) u64 S,
    and slack = 2 (3D + 16) (u + u64) S = (6K + 16) (eps + eps64) S, which in
    float64 is (12K + 32) eps64 S; tiny(dt) covers float64 underflow.
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
    if dt is np.float32:
        qf = np.concatenate([qf, np.ones((len(qf), 1))], axis=1, dtype=dt)
        pf = np.concatenate([pf, w[:, None]], axis=1, dtype=dt)
    slack = (6 * K + 16) * (np.finfo(dt).eps + np.finfo(float).eps) * scale + np.finfo(dt).tiny
    best = np.empty(len(queries), dtype=np.int64)
    buf = np.empty(min(SEARCH_BLOCK, len(queries)) * n, dtype=dt)
    tri = np.tri(SEARCH_BLOCK, dtype=bool) if after_self else None  # masks j <= i on the diagonal
    ties = []  # near-tie (queries, points) index arrays, not yet re-checked
    for a in range(0, len(queries), SEARCH_BLOCK):
        b = min(SEARCH_BLOCK, len(queries) - a)
        c0 = a if after_self else 0  # first screened point
        s = np.matmul(qf[a : a + b], pf[c0:].T, out=buf[: b * (n - c0)].reshape(b, n - c0))
        if dt is np.float64:
            s += w[c0:]
        if after_self:
            np.copyto(s[:, :b], np.inf, where=tri[:b, :b])
        rows = np.arange(b)
        idx = np.argmin(s, axis=1)
        low = s[rows, idx]
        thr = (low + slack[a : a + b]).astype(dt, copy=False)
        s[rows, idx] = np.inf
        near = np.flatnonzero(s.min(axis=1) <= thr)
        best[a : a + b] = c0 + idx
        if near.size:
            s[near, idx[near]] = low[near]
            i, j = np.divmod(np.flatnonzero(s[near] <= thr[near, None]), s.shape[1])  # columns ascend
            if sum(len(t) for t, _ in ties) + len(i) > SEARCH_BLOCK * n:  # caps the re-check's rows
                _recheck(ties, queries, points, h, best)
            ties.append((a + near[i], c0 + j))
    _recheck(ties, queries, points, h, best)
    return best


def _recheck(ties: list, queries, points, h, best: np.ndarray) -> None:
    """Empty ties, setting best[i] to the first j of least ordered distance
    among its candidates (i, j), whose j ascend within each i."""
    if ties:
        i, j = (np.concatenate(c) for c in zip(*ties))
        e = ordered_distances(queries[i], h * points[j])
        order = np.lexsort((e, i))  # stable: the lowest point leads its ties
        first = order[np.r_[True, i[order][1:] != i[order][:-1]]]
        best[i[first]] = j[first]
        ties.clear()


def tuple_digits(index, alphabet_size: int, n_users: int) -> np.ndarray:
    """Per-user messages of superimposed-constellation row indices.

    Inverse of the superimposed_constellation row order: index shape (...,)
    gives digits of shape (..., n_users), user 0 the most significant.
    """
    powers = alphabet_size ** np.arange(n_users - 1, -1, -1)
    return (np.asarray(index)[..., None] // powers) % alphabet_size
