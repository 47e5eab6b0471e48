"""Multiuser detection: Max-Log MPA over the factor graph plus an ML oracle.

The message-passing detector exchanges log-domain messages between resource
nodes and user nodes of the sparse occupancy graph, with max-sum (Max-Log)
updates. All K resources are stacked into one array per quantity, each
padded to the maximum row degree d with a phantom user whose M codewords are
zero, so regular and irregular graphs share one code path and an iteration
loops only over the d slots of a resource. Messages are slot-major: slot s
of every resource is one block, and a user reaches its N messages through
the (slot, resource) pairs of its edges.

The resource-to-user update views the combination metrics of a resource as a
cube with one length-M axis per slot. Each slot's peak is one max over the
other slot axes: a max rounds nothing, so the order numpy reduces in changes
no value, only possibly the sign of a zero peak, which no later step turns
into other bits. Each message is that peak minus the slot's own incoming
message, which rounds exactly as the max of the differences would. The batch
runs in blocks of BLOCK_BYTES / itemsize vectors, 256 in float64 and 512 in
float32, with the vectors on the last axis of every array: inner loops run
over vectors rather than over length-M slot axes, and a block's arrays take
the same bytes in either dtype. The channel metric of a block is C-ordered
(M^d, K, b), the order in which the cube adds read it, so they run over
contiguous memory. Every step is row-wise, so blocking changes no bit of the
output.

A pass takes its block arrays, the complex difference r - h s and the metric
of _channel_metrics and the cube, messages, peaks and minima of
_block_totals, from one core._Workspace (the class DenseLayer's training
buffers use too), which simulate_ber keeps per worker thread for a whole
call and mpa_detect makes per call. Each array starts on a 64-byte cache
line, at its own 256-byte step past a 4096-byte page boundary, so no two
share a page offset, and a smaller block uses a C-contiguous prefix of it. A
cube off a line boundary runs about a fifth slower (see BLOCK_BYTES), and
reuse spares the page faults of a fresh allocation per block.

_channel_metrics and _block_totals work in the dtype they are given.
_mpa_posteriors, and so mpa_detect, runs them in float64. _mpa_decisions,
which simulate_ber calls with the factor graph it builds once, runs them in
float32, the metric in complex64 arithmetic, and decides by the argmax of
the float32 totals. Max-Log only adds, subtracts and takes maxima, so the
float32 error has a bound in the run's largest message and the row's
largest |r| + |h s|, derived in its docstring. A row where some user's
top-two margin is not above that bound is returned as unsure. The caller
re-runs those rows in float64 and takes the argmax of their posteriors, so
every decision is the float64 one; past FLOAT32_MAX_E, every row is.

The ML oracle enumerates the entire superimposed constellation and is
intended for small instances and cross-checks. It runs core.nearest_points,
the exact search compute_med uses too, with the channel folded into the
screen: one GEMM of conj(h) r against the unfaded points, plus |h p|^2, in
float32 for a batch of at least core.SEARCH_BLOCK vectors of moderate
magnitude, whose GEMM adds it through an extra column, and in float64
otherwise, a single vector included. Rows whose runner-up lies within the
screen's rounding bound of the best are re-checked exactly in float64 on
h p of their candidates only, each squared distance summed over the 2K real
dimensions one at a time in index order, and the first minimum (lowest tuple
index) wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .core import (
    Codebook,
    ConfigError,
    IndicatorMatrix,
    ShapeError,
    _Workspace,
    codeword_sums,
    nearest_points,
    superimposed_constellation,
    tuple_digits,
)
from .nn import softmax

# the floor of the MPA metric only: keeps its log-likelihoods finite at a tiny N0
N0_FLOOR = 1e-12
# bytes of one (combination, resource) row of a message-passing block. Every
# array of _block_totals holds the block's vectors on its last axis, so a block
# has BLOCK_BYTES / itemsize of them: 256 in float64, 512 in float32. On the
# Huawei graph (K=4, d=3, M=4) a block's (M^d, K, b) metric then takes 512 kB
# in either dtype, and the block's arrays together about 1.5 MB, within a 2 MB
# L2 cache. Huawei, 8 dB, 48,000 bits (two chunks of 2,000 vectors), 2-core
# Xeon, float32 pass and re-run, medians of 528 alternated points: 25.7 ms
# at 2048, 27.2 at 8192, 27.4 at 4096 and 28.7 at 1024. Those arrays come from
# a _Workspace, each 64-byte aligned at its own 256-byte step within a page:
# on the same Xeon, 10 iterations of one 512-vector float32 block took
# 1.96-2.01 ms with the cube 64, 192, 3968 or 4032 bytes off the metric's
# alignment, and 2.37-2.41 ms at 16, 48, 1040, 2064 or 4080 bytes, where
# numpy's own allocations start 16 or 32 bytes past a line
BLOCK_BYTES = 2048
# largest bound constant E (_mpa_decisions) with a float32 pass. Huawei, 8 dB,
# 2,000 vectors, 2-core Xeon: 14 iterations (E = 0.031) re-run 827 rows in 34
# ms against 40 ms for float64 alone, 15 (E = 0.062) 1,886 in 56 against 41 ms
FLOAT32_MAX_E = 2.0**-5


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
        # written as what must hold, so NaN fails it
        if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)):
            raise ConfigError("posteriors must be finite, non-negative and sum to 1")
        object.__setattr__(self, "probs", p)

    def hard_decisions(self) -> np.ndarray:
        return np.argmax(self.probs, axis=1)


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
        # (K, M^d) noiseless resource values of every slot combination, slot 0 most significant
        entries = np.concatenate([codebook.entries, np.zeros((1, K, M), dtype=complex)])
        slot_words = entries[self.slot_users, np.arange(K)[:, None]].transpose(1, 2, 0)
        self.sums = np.ascontiguousarray(codeword_sums(slot_words).T)
        # (J, N) resource and slot of each user's edges, ascending resource;
        # phantom slots sort last and are dropped
        order = np.argsort(self.slot_users.reshape(-1), kind="stable")
        self.resource, self.slot = np.divmod(order[: J * cfg.N].reshape(J, cfg.N), d)


def block_rows(dtype) -> int:
    """Received vectors per message-passing block of a channel metric in dtype."""
    return BLOCK_BYTES // np.dtype(dtype).itemsize


def _channel_metrics(received: np.ndarray, ch: ChannelRealization, g: _FactorGraph, dtype,
                     ws: _Workspace):
    """(a, phi) per block of received (B, K) from row a on: the block's channel
    metric phi (M^d, K, b) in dtype, -|r - h s|^2 / N0 for every combination s
    on every resource, evaluated on r and h s cast once to the complex dtype
    of that precision. phi is ws's "phi" array, which the next block
    overwrites.

    phi is C-ordered (M^d, K, b), the order in which _block_totals' cube adds
    read it: the difference is written into a C-ordered workspace array, and
    the abs, square, negation and division run in place on phi, in the order
    -np.abs(x) ** 2 / n0 evaluates in, so each rounds as that expression
    does. Transposed views there would put the combination axis innermost
    and make every cube add stride across it."""
    cdtype = np.result_type(dtype, np.complex64)
    faded = np.ascontiguousarray((ch.h[:, None] * g.sums).T, dtype=cdtype)[:, :, None]
    n0 = np.dtype(dtype).type(max(ch.n0, N0_FLOOR))
    rows = block_rows(dtype)
    for a in range(0, len(received), rows):
        r = np.ascontiguousarray(received[a : a + rows].T, dtype=cdtype)
        shape = faded.shape[:2] + r.shape[-1:]
        diff, phi = ws.array("diff", shape, cdtype), ws.array("phi", shape, dtype)
        np.subtract(r, faded, out=diff)
        np.abs(diff, out=phi)
        np.square(phi, out=phi)
        np.negative(phi, out=phi)
        np.divide(phi, n0, out=phi)
        yield a, phi


def _mpa_posteriors(received: np.ndarray, codebook: Codebook, ch: ChannelRealization,
                    cfg: MpaConfig, graph: _FactorGraph | None = None,
                    ws: _Workspace | None = None) -> np.ndarray:
    """Batched message passing in float64: received (B, K) complex -> posteriors (B, J, M).

    The block arrays come from ws, or from a workspace of this call alone."""
    g = graph if graph is not None else _FactorGraph(codebook)
    ws = ws if ws is not None else _Workspace()
    post = np.empty((received.shape[0], g.J, g.M))
    for a, phi in _channel_metrics(received, ch, g, np.float64, ws):
        tot = _block_totals(phi, g, cfg, ws)[0]
        post[a : a + tot.shape[-1]] = softmax(np.ascontiguousarray(tot.transpose(2, 0, 1)))
    return post


def _top_two(tot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Totals (J, M, b) -> decisions (b, J), each user's first argmax over its
    M totals, and each row's least margin (b,) between a user's largest total
    and its runner-up.

    One running max and second max pass over the M rows. Maxima round
    exactly, so each margin is that of np.sort's top two: equal maxima give
    0, and a NaN total, or a user whose top two are infinite of one sign,
    gives NaN, which the row's least margin keeps. Where no total is NaN, the
    decisions are np.argmax's.
    """
    t0, t1 = tot[:, 0], tot[:, 1]
    arg = (t1 > t0).astype(np.int64)
    top, second = np.maximum(t0, t1), np.minimum(t0, t1)
    for m in range(2, tot.shape[1]):
        x = tot[:, m]
        np.maximum(second, np.minimum(x, top), out=second)
        np.copyto(arg, m, where=x > top)
        np.maximum(top, x, out=top)
    return arg.T, (top - second).min(axis=0)


def _mpa_decisions(received: np.ndarray, g: _FactorGraph, ch: ChannelRealization,
                   cfg: MpaConfig, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Max-Log decisions (B, J) from a float32 run on graph g, and the rows it cannot vouch for.

    Each block's channel metric is evaluated in complex64 arithmetic and
    iterated in float32 by _block_totals, on the arrays of ws. Every
    decision is the argmax of a float32 total. A row is sure when each
    user's margin between its top two totals exceeds
        bound = 2 E (1 + 4 E + 2^-10) R + 2 N G (1 + 2^-10) A + 2^-40;
    then each decision is the argmax of the row's float64 posteriors. The
    other rows' indices are returned: the caller re-runs them through
    _mpa_posteriors.

    Rounding bound. Let u = 2^-24, u64 = 2^-53, d the padded row degree, N
    the resources per user and R the largest |r| of the row's
    resource-to-user messages over the float32 iterations. Take each
    message's error against Max-Log in exact arithmetic on the float64
    metric, up to a constant over its M entries: a constant shifts every
    later total of a user alike, so it moves no margin. Metrics, messages and
    totals are all <= 0, so a sum of them has relative rounding error at most
    gamma_k = k u / (1 - k u), and a max keeps relative errors. The
    normalised user-to-resource messages v obey |v| <= (N - 1) R.
    - Resource update: the d - 1 other slots' message errors add. A rounding
      of the metric would cost u R (the metric's true cost, A more, follows
      below), the d additions of a combination gamma_d N R and the
      subtraction of the slot's own message u R, so
      e_r <= (d - 1) e_v + (d N + 2) u R + A.
    - User update: the N - 1 other resources' errors add. The sum over N,
      the subtraction and the normalisation cost gamma_{N-1} N R +
      2 (N - 1) u R, so e_v <= (N - 1) e_r + (N - 1)(N + 2) u R.
    - Totals: e_tot <= N e_r + N (N - 1) u R.
    With e_v = 0 at the start, n_iter iterations give e_tot <= C u R + N G A,
    where C = N c G + N (N - 1), c = d N + 2 + (d - 1)(N - 1)(N + 2), and
    G = sum_{i < n_iter} ((d - 1)(N - 1))^i. The float64 run obeys the same
    bound with u64 and A = 0, so with E = C (u + u64) a margin of either run
    lies within 2 E R + 2 N G A of the exact one. The factor 1 + 4 E covers
    the excess of the exact magnitudes and of the float64 R over R, 1 + 2^-10
    the second-order terms and the float32 rounding of the margin. 2^-40
    leaves a float64 margin that exp and the division of the posteriors
    cannot close. On the Huawei graph at 10 iterations C = 32,738 and
    2 N G = 4,092, so the bound is 3.9e-3 R + 4,096 A.

    Metric. The float32 metric is not the float64 one rounded: r and h s are
    rounded to complex64 before r - h s cancels. Let x = r - h s, t =
    |x|^2 / N0 the magnitude of the float64 metric, and S the row's largest
    |r_k| + |h_k s| over resources k and combinations s. The two roundings
    and the subtraction err by u S + u |x|, and np.abs by 4 u |x| (complex64
    np.abs is not correctly rounded; 2.5 u is the largest error measured
    over 7e7 values), so |x| is off by u S + 5 u |x|. Squaring doubles the
    relative part, and the square and the division each round once. The
    float64 metric errs by 12 u64 t the same way, so the float32 metric lies
    within g(t) = 2 u S sqrt(t / N0) + 12 (u + u64) t + 128 u^2 S^2 / N0 of
    the float64 one; the last term bounds the second-order terms, and the
    float32 underflow, at most 2^-146 (S + 1) / N0 + 2^-150, with 2^-40. N0
    rounded to float32 scales every metric alike, and Max-Log commutes with a
    positive scale, so that rounding moves no decision. In a max over
    combinations the metric errors count at the maximum. A combination value
    y has |phi| <= |y|, and one that lies D below the maximum has an error at
    most D + u^2 S^2 / N0 above g(T), T the maximum's magnitude, because g
    grows as sqrt(t). So the max errs by at most g(T) + u^2 S^2 / N0, with T
    = |r| <= R, and the resource update by at most A = 2 u S sqrt(R / N0) +
    (11 u + 12 u64) R + 128 u^2 S^2 / N0 more than a rounded metric would. A
    is kept out of E, so E, and with it the FLOAT32_MAX_E test, depends on
    the graph and n_iter alone.

    G grows geometrically, and with it the share of rows re-run, so when E
    exceeds FLOAT32_MAX_E (from 15 iterations on the Huawei graph, or when
    G, summed in float64, overflows) no float32 run is made and every row is
    returned. Below R = 2^100 no float32 value the max selects can overflow.
    A row with a larger, infinite or NaN R gets an infinite bound, and a NaN
    margin fails the test, so such rows are re-run too.
    """
    d, n = g.d, g.slot.shape[1]
    u, u64 = 2.0**-24, 2.0**-53
    dec = np.empty((received.shape[0], g.J), dtype=np.int64)
    r_max = np.empty(received.shape[0], dtype=np.float32)
    least = np.empty(received.shape[0], dtype=np.float32)  # each row's smallest top-two margin
    # overflow and NaN in the bound and the float32 run are expected; the bound catches their rows
    with np.errstate(over="ignore", invalid="ignore"):
        growth = sum(np.float64((d - 1) * (n - 1)) ** i for i in range(cfg.n_iter))
        e = (n * (d * n + 2 + (d - 1) * (n - 1) * (n + 2)) * growth + n * (n - 1)) * (u + u64)
        if e > FLOAT32_MAX_E:
            return dec, np.arange(received.shape[0])
        for a, phi in _channel_metrics(received, ch, g, np.float32, ws):
            rows = slice(a, a + phi.shape[-1])
            tot, r_max[rows] = _block_totals(phi, g, cfg, ws)
            dec[rows], least[rows] = _top_two(tot)
        # S / sqrt(N0) per row, S the largest |r_k| + |h_k s| over resources k and combinations s
        s = (np.abs(received) + np.abs(ch.h[:, None] * g.sums).max(axis=1)).max(axis=1)
        s /= np.sqrt(max(ch.n0, N0_FLOOR))
        excess = 2 * u * s * np.sqrt(r_max) + (11 * u + 12 * u64) * r_max + 128 * u * u * s * s  # A
        bound = 2 * e * (1 + 4 * e + 2.0**-10) * r_max + 2 * n * growth * (1 + 2.0**-10) * excess + 2.0**-40
        sure = least > np.where(r_max < 2.0**100, bound, np.inf)
    return dec, np.flatnonzero(~sure)


def _block_totals(phi: np.ndarray, g: _FactorGraph, cfg: MpaConfig,
                  ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """All iterations on one block, in phi's dtype: channel metric phi
    (M^d, K, b) -> each user's final log-domain totals (J, M, b), and the
    largest |r| (b,) of any resource-to-user message over the iterations.

    The block's vectors run along the last axis of every array, so each
    elementwise step loops innermost over b contiguous values, not over a
    length-M slot axis. Messages are (d, M, K, b): the resource update reads
    and writes slot s's (M, K, b) block whole, and the user update gathers
    and scatters each edge's (M, b) messages at (g.slot, :, g.resource).
    Slot s's peak is one np.maximum.reduce of the (M,) * d + (K, b) cube
    over its other slot axes, those before s and those after it each merged
    into one, into the slot's block of the peaks; one subtraction of the
    incoming messages from all d peaks then gives every message. A user's
    message is normalised by its max over the M messages. The last
    iteration's totals are the sum its user update would take, and no
    message to a resource is made after them.

    The cube, messages, peaks and running minima are ws's (64-byte aligned,
    each at its own 256-byte page offset, see _Workspace); the messages and
    minima restart from zero on every block, and the returned arrays are
    the block's own.
    """
    M, K, d, b = g.M, g.K, g.d, phi.shape[-1]
    cube_shape = (M,) * d + (K, b)
    total = ws.array("total", cube_shape, phi.dtype)
    # user-to-resource (v) and resource-to-user messages, each slot's peak
    # and each message's running minimum, slot-major (d, M, K, b): slot s's
    # messages are one block v[s]. v starts uniform, and every message is <= 0
    v, peak, r_msg, low = (ws.array(name, (d, M, K, b), phi.dtype) for name in ("v", "peak", "r_msg", "low"))
    v.fill(0)
    low.fill(0)
    # v[s] broadcast along slot axis s of the cube
    v_axis = [v[s].reshape((1,) * s + (M,) + (1,) * (d - 1 - s) + (K, b)) for s in range(d)]
    # the cube with slot s on axis 1 and the slots before and after it merged on axes 0 and 2
    slot_cube = [total.reshape(M**s, M, M ** (d - 1 - s), K, b) for s in range(d)]

    for it in range(cfg.n_iter):
        # resource-to-user: combine channel metric with every slot's message,
        # then remove each slot's own message from the max over the others
        np.add(phi.reshape(cube_shape), v_axis[0], out=total)
        for s in range(1, d):
            total += v_axis[s]
        for s in range(d):
            np.maximum.reduce(slot_cube[s], axis=(0, 2), out=peak[s])
        np.subtract(peak, v, out=r_msg)
        np.minimum(low, r_msg, out=low)
        # user-to-resource: sum of the other resources' messages, normalized
        incoming = r_msg[g.slot, :, g.resource]  # (J, N, M, b)
        tot = incoming.sum(axis=1, keepdims=True)
        if it == cfg.n_iter - 1:
            break
        msg = tot - incoming
        msg -= msg.max(axis=2, keepdims=True)
        v[g.slot, :, g.resource] = msg

    return tot[:, 0], -low.min(axis=(0, 1, 2))


def _received_vector(received, codebook: Codebook, ch: ChannelRealization) -> np.ndarray:
    """One received vector as a (1, K) complex batch, checked with the channel's length."""
    r, K = np.asarray(received, dtype=complex), codebook.config.K
    if r.shape != (K,):
        raise ShapeError(f"received vector shape {r.shape}, expected ({K},)")
    if ch.h.shape != (K,):
        raise ShapeError(f"channel has {ch.h.size} coefficients, codebook has {K} resources")
    if not np.all(np.isfinite(r)):
        raise ConfigError(f"received vector has a non-finite entry: {r.tolist()}")
    return r[None, :]


def mpa_detect(received, codebook: Codebook, ch: ChannelRealization, cfg: MpaConfig = MpaConfig()) -> PosteriorSet:
    """Per-user posteriors for one received vector; hard decision is argmax."""
    probs = _mpa_posteriors(_received_vector(received, codebook, ch), codebook, ch, cfg)[0]
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
    return _ml_decisions(_received_vector(received, codebook, ch), codebook, ch)[0]


def mpa_complexity(cfg: MpaConfig, ind: IndicatorMatrix, alphabet_size: int) -> int:
    """Operation count N_iter * K * d^2 * M^d of the detector, d the maximum row
    degree: it pads every resource to d slots, so the count holds on irregular graphs too."""
    df = ind.max_row_degree
    return int(cfg.n_iter * ind.n_resources * df**2 * alphabet_size**df)
