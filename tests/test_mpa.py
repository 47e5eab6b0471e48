import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scmalink import (
    ChannelRealization,
    Codebook,
    ConfigError,
    IndicatorMatrix,
    MpaConfig,
    PosteriorSet,
    ScmaError,
    SearchSpaceError,
    ShapeError,
    SystemConfig,
    apply_channel,
    data_path,
    ebn0_to_n0,
    ml_detect,
    mpa_complexity,
    mpa_detect,
    read_codebook,
    superimpose,
    superimposed_constellation,
    tuple_digits,
)
from scmalink import core, mpa
from scmalink.core import SEARCH_BLOCK, nearest_points
from scmalink.mpa import (N0_FLOOR, _block_totals, _FactorGraph, _ml_decisions, _mpa_decisions,
                          _mpa_posteriors, _top_two, block_rows)

# received vectors per message-passing block: float64 runs (_mpa_posteriors)
# and float32 runs (_mpa_decisions)
BLOCK, BLOCK32 = block_rows(np.float64), block_rows(np.float32)


# a fixed fading vector h whose gains differ by resource
FADING = np.array([1.3 + 0.4j, 0.2 - 0.9j, 0.7 + 0.1j, -0.5 + 1.6j])


@pytest.fixture(scope="module")
def huawei():
    return read_codebook(data_path("huawei_4x6.json")).normalized()


def single_user_codebook():
    cfg = SystemConfig(n_users=1, n_resources=1, n_nonzero=1, alphabet_size=4)
    ind = IndicatorMatrix([[1]])
    entries = np.array([[[1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]]], dtype=complex)
    return Codebook(entries=entries, config=cfg, indicator=ind)


class TestMpaDetect:
    def test_posteriors_are_distributions(self, huawei):
        rng = np.random.default_rng(0)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(6.0, 4))
        r = apply_channel(np.zeros(4, dtype=complex), ch, rng)
        post = mpa_detect(r, huawei, ch)
        assert post.probs.shape == (6, 4)
        assert np.all(post.probs >= 0)
        assert post.probs.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-9)

    def test_noise_free_recovers_all_tuples(self, huawei):
        pts = superimposed_constellation(huawei)
        ch = ChannelRealization.awgn(4, N0_FLOOR)
        post = _mpa_posteriors(pts, huawei, ch, MpaConfig(n_iter=10))
        dec = np.argmax(post, axis=2)
        idx = sum(dec[:, j] * 4 ** (5 - j) for j in range(6))
        assert np.array_equal(idx, np.arange(4096))

    def test_cycle_free_equals_ml_posterior(self):
        # single user, single resource: one iteration gives the exact posterior
        cb = single_user_codebook()
        n0 = 0.5
        ch = ChannelRealization.awgn(1, n0)
        r = np.array([0.3 + 0.1j])
        post = mpa_detect(r, cb, ch, MpaConfig(n_iter=1))
        metrics = -np.abs(r[0] - cb.entries[0][0]) ** 2 / n0
        exact = np.exp(metrics - metrics.max())
        exact /= exact.sum()
        assert post.probs[0] == pytest.approx(exact, abs=1e-9)

    def test_agreement_with_ml_at_8db(self, huawei):
        rng = np.random.default_rng(8)
        n0 = ebn0_to_n0(8.0, 4)
        ch = ChannelRealization.awgn(4, n0)
        n_trials = 2000
        msgs = rng.integers(0, 4, (n_trials, 6))
        r = apply_channel(superimpose(huawei, msgs), ch, rng)
        mpa_dec = np.argmax(_mpa_posteriors(r, huawei, ch, MpaConfig(n_iter=10)), axis=2)
        ml_dec = _ml_decisions(r, huawei, ch)
        assert (mpa_dec == ml_dec).mean() >= 0.99

    def test_monotone_in_snr(self, huawei):
        # symbol error rate is non-increasing over 2..12 dB at fixed seeds
        rates = []
        for point, ebn0 in enumerate([2.0, 4.0, 6.0, 8.0, 10.0, 12.0]):
            rng = np.random.default_rng(100 + point)
            n0 = ebn0_to_n0(ebn0, 4)
            ch = ChannelRealization.awgn(4, n0)
            msgs = rng.integers(0, 4, (4000, 6))
            r = apply_channel(superimpose(huawei, msgs), ch, rng)
            dec = np.argmax(_mpa_posteriors(r, huawei, ch, MpaConfig()), axis=2)
            rates.append((dec != msgs).mean())
        # allow tiny statistical wiggle at the high-SNR end
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 0.002

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            MpaConfig(n_iter=0)


def random_sparse_codebook(F, alphabet_size, rng):
    F = np.array(F)
    K, J = F.shape
    cfg = SystemConfig(n_users=J, n_resources=K, n_nonzero=int(F[:, 0].sum()), alphabet_size=alphabet_size)
    shape = (J, K, alphabet_size)
    entries = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * F.T[:, :, None]
    return Codebook(entries=entries, config=cfg, indicator=IndicatorMatrix(F))


class TestCycleFreeOracles:
    # a tree with row degrees 3, 1, 1, 1 (padded with phantom users) and a
    # single resource; message passing is exact on both
    GRAPHS = {"tree": [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "one_resource": [[1, 1]]}

    @staticmethod
    def _setup(F):
        rng = np.random.default_rng(11)
        cb = random_sparse_codebook(F, 4, rng)
        ch = ChannelRealization.awgn(cb.config.K, 0.5)
        msgs = rng.integers(0, 4, (200, cb.config.J))
        return cb, ch, apply_channel(superimpose(cb, msgs), ch, rng)

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_max_log_equals_exact_max_marginals(self, graph):
        cb, ch, r = self._setup(self.GRAPHS[graph])
        J, M = cb.config.J, cb.config.M
        post = _mpa_posteriors(r, cb, ch, MpaConfig(n_iter=4))
        # brute force over every tuple of the superimposed constellation: for
        # each user and message, the max log-likelihood of the tuples that
        # carry it, softmax-normalized over the messages
        pts = superimposed_constellation(cb)
        loglik = -(np.abs(r[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) / ch.n0
        digits = tuple_digits(np.arange(M**J), M, J)
        peak = np.stack([np.stack([loglik[:, digits[:, j] == m].max(axis=1) for m in range(M)], axis=1)
                         for j in range(J)], axis=1)  # (B, J, M)
        exact = np.exp(peak - peak.max(axis=2, keepdims=True))
        exact /= exact.sum(axis=2, keepdims=True)
        assert np.abs(post - exact).max() < 1e-12

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_max_log_decisions_equal_ml(self, graph):
        cb, ch, r = self._setup(self.GRAPHS[graph])
        post = _mpa_posteriors(r, cb, ch, MpaConfig(n_iter=4))
        assert np.array_equal(np.argmax(post, axis=2), _ml_decisions(r, cb, ch))


class TestRecordedPosteriors:
    # the repr of _mpa_posteriors on fixed received vectors of the normalized
    # Huawei codebook at 4 and 8 dB, recorded before the factor graph was
    # stacked over resources; any change of summation order shows here. The
    # file also records damped and sum-product updates, which the detector no
    # longer has; only the Max-Log entry is read
    RECORDED = json.loads(Path(__file__).with_name("mpa_posteriors_v1.json").read_text())

    @pytest.mark.parametrize("name", ["max_log"])
    def test_bit_identical_to_recording(self, huawei, name):
        assert self.RECORDED["configs"][name] == {"n_iter": 10, "damping": 0.0, "max_log": True}
        cfg = MpaConfig(n_iter=10)
        for point in self.RECORDED["points"]:
            r = np.array([[complex(float(re), float(im)) for re, im in row]
                          for row in point["received"]])
            ch = ChannelRealization.awgn(4, float(point["n0"]))
            post = _mpa_posteriors(r, huawei, ch, cfg)
            got = [[[repr(float(p)) for p in user] for user in row] for row in post]
            assert got == point["posteriors"][name], point["ebn0_db"]


def block_crossing_cases():
    """Seeded 600-vector batches that span several 256-vector blocks.

    "huawei": the normalized Huawei codebook over AWGN at 8 dB; "irregular":
    a random M=8 codebook on row degrees 3, 2, 2, 3 (padded with phantom
    users) over a fixed fading vector h.
    """
    rng = np.random.default_rng(2024)
    huawei = read_codebook(data_path("huawei_4x6.json")).normalized()
    irregular = random_sparse_codebook(
        [[1, 1, 1, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 1, 1]], 8, rng)
    h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
    channels = {"huawei": (huawei, ChannelRealization.awgn(4, ebn0_to_n0(8.0, 4))),
                "irregular": (irregular, ChannelRealization(h=h, n0=ebn0_to_n0(8.0, 8)))}
    cases = {}
    for name, (cb, ch) in channels.items():
        msgs = rng.integers(0, cb.config.M, (600, cb.config.J))
        cases[name] = cb, ch, apply_channel(superimpose(cb, msgs), ch, rng)
    return cases


def sha256_of(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestRecordedBlockPosteriors:
    # SHA-256 of the float64 bytes of _mpa_posteriors on block_crossing_cases,
    # recorded before the resource update was split into batch blocks; the
    # received batch is hashed too, so a change in the inputs is told apart
    # from a change in the detector. As in the first file, only the Max-Log
    # entry is read
    RECORDED = json.loads(Path(__file__).with_name("mpa_posteriors_v2.json").read_text())
    CASES = block_crossing_cases()

    @pytest.mark.parametrize("config", ["max_log"])
    @pytest.mark.parametrize("case", sorted(RECORDED["cases"]))
    def test_bit_identical_to_recording(self, case, config):
        assert self.RECORDED["configs"][config] == {"n_iter": 10, "damping": 0.0, "max_log": True}
        cb, ch, r = self.CASES[case]
        want = self.RECORDED["cases"][case]
        assert sha256_of(r) == want["received_sha256"]
        post = _mpa_posteriors(r, cb, ch, MpaConfig(n_iter=10))
        rows = want["repr_rows"]
        assert [[repr(float(p)) for p in post[row, 0]] for row in rows] == want["reprs"][config]
        assert sha256_of(post) == want["posteriors_sha256"][config]


def loop_block_totals(phi, g, n_iter):
    """Reference Max-Log on one block, one resource, slot and combination at a
    time: phi (M^d, K, b) -> each user's totals (J, M, b) and the largest |r|
    (b,) of any resource-to-user message. The message of slot s at message m
    is the max, over the combinations that put m on slot s, of the metric plus
    the other slots' incoming messages."""
    M, K, d, b = g.M, g.K, g.d, phi.shape[-1]
    zero = np.zeros((M, b), phi.dtype)
    v = {(k, s): zero for k in range(K) for s in range(d)}
    r = {}
    largest = np.zeros(b, phi.dtype)
    # each user's (resource, slot) edges; phantom slots belong to no user
    edges = [[(k, s) for k in range(K) for s in range(d) if g.slot_users[k, s] == j] for j in range(g.J)]
    combos = list(itertools.product(range(M), repeat=d))  # slot 0 most significant, as phi's rows
    for _ in range(n_iter):
        for k, s in itertools.product(range(K), range(d)):
            peak = np.full((M, b), -np.inf, phi.dtype)
            for row, combo in enumerate(combos):
                value = phi[row, k] + sum(v[k, q][combo[q]] for q in range(d) if q != s)
                peak[combo[s]] = np.maximum(peak[combo[s]], value)
            r[k, s] = peak
            largest = np.maximum(largest, -peak.min(axis=0))
        for own in edges:
            for e in own:
                msg = sum(r[f] for f in own if f != e) + zero
                v[e] = msg - msg.max(axis=0)
    totals = np.stack([sum(r[e] for e in own) for own in edges])
    return totals, largest


class TestBlockTotals:
    # one graph per padded row degree d; d = 2 and d = 3 have phantom slots
    GRAPHS = {1: np.eye(2, dtype=int),
              2: [[1, 0], [1, 1], [0, 1]],
              3: [[1, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]],
              4: np.ones((2, 4), dtype=int)}

    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_loop_reference(self, dtype, d, M):
        rng = np.random.default_rng([d, M])
        g = _FactorGraph(random_sparse_codebook(self.GRAPHS[d], M, rng))
        assert g.d == d
        # integer metrics: every sum is exact. Each peak is taken over
        # M^(d-1) combinations of about twice as many values, so ties are
        # common but the peaks are not all the largest value
        phi = rng.integers(-2 * M ** (d - 1), 1, (M**d, g.K, 3)).astype(dtype)
        tot, largest = _block_totals(phi, g, MpaConfig(n_iter=3))
        want_tot, want_largest = loop_block_totals(phi, g, 3)
        assert tot.dtype == largest.dtype == dtype
        assert tot.shape == want_tot.shape and np.array_equal(tot, want_tot)
        assert largest.shape == want_largest.shape and np.array_equal(largest, want_largest)


def loop_constellation(cb):
    """Reference: each user's (M, K) codewords added in user order from zero."""
    K = cb.config.K
    words = np.ascontiguousarray(cb.entries.transpose(0, 2, 1))
    pts = np.zeros((1, K), dtype=complex)
    for j in range(cb.config.J):
        pts = (pts[:, None, :] + words[j][None, :, :]).reshape(-1, K)
    return pts


def loop_graph_sums(cb, g):
    """Reference: each slot's codewords, indexed by tuple_digits, added in slot order from zero."""
    M, K, d = cb.config.M, cb.config.K, g.d
    slot_index = tuple_digits(np.arange(M**d), M, d).T
    entries = np.concatenate([cb.entries, np.zeros((1, K, M), dtype=complex)])
    slot_words = entries[g.slot_users, np.arange(K)[:, None]]
    sums = np.zeros((K, M**d), dtype=complex)
    for slot in range(d):
        sums = sums + slot_words[:, slot, slot_index[slot]]
    return sums


def random_graph(J, K, N, rng):
    F = np.zeros((K, J), dtype=int)
    for j in range(J):
        F[rng.choice(K, N, replace=False), j] = 1
    return F


def codeword_sum_cases():
    """Huawei, the irregular M=8 graph of block_crossing_cases and random
    (J, M, K, N) systems; J = 1 and the identity graph give one user or one
    slot, with M up to 16."""
    cases = {"huawei": read_codebook(data_path("huawei_4x6.json")),
             "irregular": block_crossing_cases()["irregular"][0]}
    for J, M, K, N in [(3, 8, 3, 2), (5, 4, 4, 2), (4, 2, 6, 3), (1, 16, 2, 2), (2, 16, 2, 1)]:
        rng = np.random.default_rng([J, M, K, N])
        F = np.eye(K, dtype=int) if (J, N) == (K, 1) else random_graph(J, K, N, rng)
        cases[f"J{J}-M{M}-K{K}-N{N}"] = random_sparse_codebook(F, M, rng)
    return cases


class TestCodewordSums:
    CASES = codeword_sum_cases()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constellation_equals_loop_bit_for_bit(self, case):
        cb = self.CASES[case]
        pts, want = superimposed_constellation(cb), loop_constellation(cb)
        assert pts.flags.c_contiguous
        assert pts.dtype == want.dtype and pts.shape == want.shape and pts.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_graph_sums_equal_loop_bit_for_bit(self, case):
        cb = self.CASES[case]
        g = _FactorGraph(cb)
        want = loop_graph_sums(cb, g)
        assert g.sums.flags.c_contiguous
        assert g.sums.dtype == want.dtype and g.sums.shape == want.shape
        assert g.sums.tobytes() == want.tobytes()


class TestEdgeIndex:
    # each user's (resource, slot) pairs: the slot holds that user, and the
    # resources are its support in ascending order
    CASES = codeword_sum_cases()

    @pytest.mark.parametrize("case", ["huawei", "irregular", "J5-M4-K4-N2"])
    def test_slots_hold_their_user_on_the_support(self, case):
        cb = self.CASES[case]
        g = _FactorGraph(cb)
        J, N = cb.config.J, cb.config.N
        assert g.resource.shape == g.slot.shape == (J, N)
        users = np.repeat(np.arange(J)[:, None], N, axis=1)
        assert np.array_equal(g.slot_users[g.resource, g.slot], users)
        assert np.array_equal(g.resource, cb.indicator.supports)


class TestBatchBlocks:
    @pytest.mark.parametrize("B", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_rows_equal_single_vector_runs(self, huawei, B):
        rng = np.random.default_rng(B)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(6.0, 4))
        r = apply_channel(superimpose(huawei, rng.integers(0, 4, (B, 6))), ch, rng)
        for cfg in (MpaConfig(), MpaConfig(n_iter=3)):
            post = _mpa_posteriors(r, huawei, ch, cfg)
            assert post.shape == (B, 6, 4)
            for i in range(B):
                assert post[i].tobytes() == _mpa_posteriors(r[i : i + 1], huawei, ch, cfg)[0].tobytes()


class TestChannelMetricLayout:
    # the Huawei graph over AWGN and the padded M=8 irregular graph of
    # block_crossing_cases over its fading h, at 8 dB
    @pytest.fixture(scope="class")
    def systems(self):
        irregular, ch, _ = block_crossing_cases()["irregular"]
        return {"huawei": (read_codebook(data_path("huawei_4x6.json")).normalized(),
                           ChannelRealization.awgn(4, ebn0_to_n0(8.0, 4))),
                "irregular": (irregular, ch)}

    @pytest.mark.parametrize("system", ["huawei", "irregular"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 2000])  # one row; full blocks and a partial last one
    def test_c_ordered_blocks_equal_the_transposed_expression(self, systems, system, dtype, B):
        cb, ch = systems[system]
        g = _FactorGraph(cb)
        rng = np.random.default_rng([B, 24])
        received = apply_channel(superimpose(cb, rng.integers(0, g.M, (B, g.J))), ch, rng)
        # the metric as written on transposed views, whose result puts the
        # combination axis innermost in memory
        cdtype = np.result_type(dtype, np.complex64)
        faded = (ch.h[:, None] * g.sums).T[:, :, None].astype(cdtype, copy=False)
        r = received.astype(cdtype, copy=False)
        n0 = np.dtype(dtype).type(max(ch.n0, N0_FLOOR))
        rows, starts = block_rows(dtype), []
        for a, phi in mpa._channel_metrics(received, ch, g, dtype):
            starts.append(a)
            b = min(rows, B - a)
            assert phi.dtype == dtype and phi.shape == (g.M**g.d, g.K, b)
            assert phi.flags.c_contiguous
            assert phi.tobytes() == (-np.abs(r[a : a + rows].T[None] - faded) ** 2 / n0).tobytes()
        assert starts == list(range(0, B, rows))


def float64_decisions(r, cb, ch, cfg=MpaConfig()):
    return np.argmax(_mpa_posteriors(r, cb, ch, cfg), axis=2)


def rerun_decisions(r, cb, ch, cfg=MpaConfig()):
    """Float32 decisions with the unsure rows re-run in float64, as simulate_ber
    does, and the unsure rows."""
    dec, unsure = _mpa_decisions(r, _FactorGraph(cb), ch, cfg)
    assert dec.shape == (len(r), cb.config.J) and np.all(np.diff(unsure) > 0)
    dec[unsure] = float64_decisions(r[unsure], cb, ch, cfg)
    return dec, unsure


class TestFloat32Decisions:
    # the Huawei codebook over AWGN and over a fixed fading h, and the random
    # M=8 irregular graph of block_crossing_cases over its own fading h
    @pytest.fixture(scope="class")
    def systems(self):
        huawei = read_codebook(data_path("huawei_4x6.json")).normalized()
        irregular, ch, _ = block_crossing_cases()["irregular"]
        return {"huawei-awgn": (huawei, np.ones(4)), "huawei-fading": (huawei, FADING),
                "irregular-fading": (irregular, ch.h)}

    @pytest.mark.parametrize("system", ["huawei-awgn", "huawei-fading", "irregular-fading"])
    @pytest.mark.parametrize("ebn0", [0.0, 4.0, 8.0, 12.0, 20.0])
    @pytest.mark.parametrize("B", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK32 - 1, BLOCK32, BLOCK32 + 1, 2000])
    def test_equal_float64_argmax(self, systems, system, ebn0, B):
        cb, h = systems[system]
        rng = np.random.default_rng([B, int(ebn0)])
        ch = ChannelRealization(h=h, n0=ebn0_to_n0(ebn0, cb.config.M))
        r = apply_channel(superimpose(cb, rng.integers(0, cb.config.M, (B, cb.config.J))), ch, rng)
        dec, _ = rerun_decisions(r, cb, ch)
        assert np.array_equal(dec, float64_decisions(r, cb, ch))

    def test_most_rows_need_no_rerun(self, systems):
        # 45 of these 2,000 rows (about 2.3 %) need a re-run at 8 dB; a bound
        # that made every row unsure would still pass the test above
        cb, _ = systems["huawei-awgn"]
        rng = np.random.default_rng(8)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(8.0, 4))
        r = apply_channel(superimpose(cb, rng.integers(0, 4, (2000, 6))), ch, rng)
        assert len(_mpa_decisions(r, _FactorGraph(cb), ch, MpaConfig())[1]) < 100

    # on the Huawei graph the bound constant E is 0.031 at 14 iterations, just
    # under FLOAT32_MAX_E, and 0.062 at 15, where the float32 run is skipped
    @pytest.mark.parametrize("n_iter", [14, 15])
    def test_equal_float64_argmax_on_each_side_of_the_float32_limit(self, systems, monkeypatch, n_iter):
        cb, _ = systems["huawei-awgn"]
        cfg = MpaConfig(n_iter=n_iter)
        rng = np.random.default_rng(n_iter)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(8.0, 4))
        r = apply_channel(superimpose(cb, rng.integers(0, 4, (2 * BLOCK32, 6))), ch, rng)
        runs, block_totals = [], mpa._block_totals
        monkeypatch.setattr(mpa, "_block_totals", lambda phi, *a: runs.append(phi.dtype) or block_totals(phi, *a))
        dec, unsure = rerun_decisions(r, cb, ch, cfg)
        assert np.array_equal(dec, float64_decisions(r, cb, ch, cfg))
        float32_runs = runs.count(np.float32)
        if n_iter == 14:
            assert float32_runs == -(-len(r) // BLOCK32) and len(unsure) < len(r)
        else:
            assert float32_runs == 0 and np.array_equal(unsure, np.arange(len(r)))

    def test_overflowing_bound_reruns_every_row(self, systems):
        # from 1,023 iterations the bound's growth term overflows on the
        # Huawei graph; it once raised OverflowError summed as Python ints
        cb, _ = systems["huawei-awgn"]
        cfg = MpaConfig(n_iter=1100)
        rng = np.random.default_rng(1100)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(8.0, 4))
        r = apply_channel(superimpose(cb, rng.integers(0, 4, (16, 6))), ch, rng)
        dec, unsure = rerun_decisions(r, cb, ch, cfg)
        assert np.array_equal(unsure, np.arange(16))
        assert np.array_equal(dec, float64_decisions(r, cb, ch, cfg))

    # noise-free points, exact midpoints between two points of the
    # superimposed constellation (every other one a nearest pair), and one
    # point scaled by 2^46: at N0_FLOOR its metrics (about 2^132) overflow
    # float32, while float64 still tells its combinations apart
    @pytest.mark.parametrize("h", [np.ones(4), FADING], ids=["awgn", "fading"])
    @pytest.mark.parametrize("n0", [N0_FLOOR, 0.1])
    def test_tie_heavy_set(self, systems, h, n0):
        cb, _ = systems["huawei-awgn"]
        faded = h * superimposed_constellation(cb)
        rng = np.random.default_rng(3)
        i, j = rng.integers(0, 4096, (2, 600))
        d2 = sum(np.abs(faded[i, None, k] - faded[:, k]) ** 2 for k in range(4))
        d2[np.arange(600), i] = np.inf
        j[::2] = np.argmin(d2, axis=1)[::2]
        r = np.concatenate([faded, (faded[i] + faded[j]) / 2, faded[1234][None] * 2.0**46])
        ch = ChannelRealization(h=h, n0=n0)
        want = float64_decisions(r, cb, ch)
        assert np.any(want[-1] != 0)  # so the argmax of NaN totals (0) is wrong there
        dec, unsure = rerun_decisions(r, cb, ch)
        assert np.array_equal(dec, want)
        assert unsure[-1] == len(r) - 1

    def test_large_common_offset(self, systems):
        # every codeword shifted by 2^14 on each of its resources: r and h s
        # are large against the constellation's spacing, so r - h s cancels
        # and the complex64 metric errs by up to about 2 u |r| |r - h s| / N0,
        # far more than a rounding of the metric's own value. Noisy points and
        # midpoints of random pairs of the superimposed constellation
        cb, _ = systems["huawei-awgn"]
        cb = Codebook(entries=cb.entries + 2.0**14 * cb.indicator.F.T[:, :, None], config=cb.config,
                      indicator=cb.indicator)
        rng = np.random.default_rng(14)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(8.0, 4))
        pts = superimposed_constellation(cb)
        i, j = rng.integers(0, 4096, (2, 1000))
        noisy = apply_channel(superimpose(cb, rng.integers(0, 4, (1000, 6))), ch, rng)
        r = np.concatenate([noisy, (pts[i] + pts[j]) / 2])
        dec, _ = rerun_decisions(r, cb, ch)
        assert np.array_equal(dec, float64_decisions(r, cb, ch))


class TestTopTwo:
    # totals of few distinct values, so that many users' maxima are equal,
    # with NaN, +inf and -inf written over random entries and whole users
    @staticmethod
    def crafted_totals(M):
        rng = np.random.default_rng(M)
        J, b = 3, 600
        tot = rng.integers(-3, 1, (J, M, b)).astype(np.float32)
        for bad, cols in ((np.nan, slice(0, 60)), (np.inf, slice(60, 120)), (-np.inf, slice(120, 180))):
            users = rng.integers(0, J, 60)
            tot[users, rng.integers(0, M, 60), np.arange(b)[cols]] = bad
            tot[users[::6], :, np.arange(b)[cols][::6]] = bad  # every total of the user
        tot[:, :, 180:240] = tot[:, :1, 180:240]  # all M totals equal
        return tot

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_equals_sort_and_argmax(self, M):
        tot = self.crafted_totals(M)
        with np.errstate(invalid="ignore"):  # inf - inf
            dec, least = _top_two(tot)
            top2 = np.sort(tot, axis=1)[:, -2:]  # NaN sorts last
            margin = top2[:, 1] - top2[:, 0]
        finite = ~np.isnan(tot).any(axis=(0, 1))
        assert np.array_equal(dec[finite], np.argmax(tot, axis=1).T[finite])
        for bound in (0.0, 0.5, 1.0, np.inf, np.linspace(0.0, 2.0, tot.shape[2])):
            assert np.array_equal(least > bound, np.all(margin > bound, axis=0))
        # a NaN total, a user's equal maxima and a user whose totals are all
        # +inf or all -inf leave the row unsure at any bound
        unsure = np.isnan(tot).any(axis=(0, 1)) | np.any(margin == 0, axis=0)
        unsure |= np.any(np.all(np.isinf(tot), axis=1), axis=0)
        assert unsure[:60].all() and unsure[180:240].all() and unsure[60:180:6].all()
        assert not np.any(least[unsure] > 0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
    @pytest.mark.parametrize("detect", [mpa_detect, ml_detect])
    def test_received_vector_rejected(self, huawei, detect, bad):
        r = np.array([bad, 1, 1, 1], dtype=complex)
        with pytest.raises(ScmaError, match="non-finite"):
            detect(r, huawei, ChannelRealization.awgn(4, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_posterior_set_rejects_non_finite(self, bad):
        probs = np.full((2, 4), 0.25)
        probs[1, 2] = bad
        with pytest.raises(ConfigError):
            PosteriorSet(probs=probs)


    @pytest.mark.parametrize("shape", [(4,), (1, 2, 4)])
    def test_posterior_set_rejects_other_than_two_dimensions(self, shape):
        with pytest.raises(ShapeError, match="posteriors must be"):
            PosteriorSet(probs=np.full(shape, 0.25))

    def test_hard_decisions_are_each_users_most_probable_message(self):
        posteriors = PosteriorSet(probs=[[0.1, 0.6, 0.3], [0.5, 0.2, 0.3]])
        assert posteriors.hard_decisions().tolist() == [1, 0]


class TestChannelLength:
    # one coefficient per resource: a length-1 h must not broadcast over the four
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("detect", [mpa_detect, ml_detect])
    def test_channel_of_another_length_rejected(self, huawei, detect, n):
        ch = ChannelRealization(h=np.ones(n), n0=0.1)
        with pytest.raises(ShapeError, match=f"channel has {n} coefficients, codebook has 4 resources"):
            detect(np.ones(4, dtype=complex), huawei, ch)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("detect", [mpa_detect, ml_detect])
    def test_received_vector_of_another_length_rejected(self, huawei, detect, n):
        with pytest.raises(ShapeError, match=re.escape(f"received vector shape ({n},), expected (4,)")):
            detect(np.ones(n, dtype=complex), huawei, ChannelRealization.awgn(4, 0.1))


class TestMlDetect:
    def test_exact_point_returned(self, huawei):
        pts = superimposed_constellation(huawei)
        ch = ChannelRealization.awgn(4, 0.1)
        idx = 1234
        dec = ml_detect(pts[idx], huawei, ch)
        assert sum(dec[j] * 4 ** (5 - j) for j in range(6)) == idx

    def test_tie_break_lowest_tuple_index(self):
        # two BPSK users on one resource: r = 0 ties between (0,1) and (1,0)
        cfg = SystemConfig(n_users=2, n_resources=1, n_nonzero=1, alphabet_size=2)
        ind = IndicatorMatrix([[1, 1]])
        entries = np.array([[[1, -1]], [[1, -1]]], dtype=complex)
        cb = Codebook(entries=entries, config=cfg, indicator=ind)
        ch = ChannelRealization.awgn(1, 0.1)
        dec = ml_detect(np.array([0.0 + 0j]), cb, ch)
        assert dec.tolist() == [0, 1]

    def test_matches_naive_double_loop(self, huawei):
        rng = np.random.default_rng(17)
        ch = ChannelRealization.awgn(4, ebn0_to_n0(6.0, 4))
        pts = superimposed_constellation(huawei)
        for _ in range(10):
            r = apply_channel(pts[rng.integers(0, 4096)], ch, rng)
            dec = ml_detect(r, huawei, ch)
            # independent re-implementation: explicit loop over all tuples
            best, best_idx = np.inf, -1
            for idx in range(4096):
                d = float(np.sum(np.abs(r - pts[idx]) ** 2))
                if d < best:
                    best, best_idx = d, idx
            assert sum(dec[j] * 4 ** (5 - j) for j in range(6)) == best_idx

    @pytest.mark.parametrize("B", [0, 1, SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1])
    def test_batch_rows_equal_single_vector_runs(self, huawei, B):
        # from SEARCH_BLOCK rows on, the batch is screened in float32 and a
        # single vector in float64
        rng = np.random.default_rng(B)
        n0 = ebn0_to_n0(6.0, 4)
        for ch in (ChannelRealization.awgn(4, n0), ChannelRealization(h=FADING, n0=n0)):
            r = apply_channel(superimpose(huawei, rng.integers(0, 4, (B, 6))), ch, rng)
            dec = _ml_decisions(r, huawei, ch)
            assert dec.shape == (B, 6)
            for i in range(B):
                assert np.array_equal(dec[i], ml_detect(r[i], huawei, ch))

    def test_batch_screen_is_float32(self, huawei):
        # a float64 screen of one block against the 4096 points alone takes
        # SEARCH_BLOCK * 4096 * 8 bytes
        rng = np.random.default_rng(64)
        pts = superimposed_constellation(huawei)
        ch = ChannelRealization(h=FADING, n0=ebn0_to_n0(8.0, 4))
        r = apply_channel(superimpose(huawei, rng.integers(0, 4, (SEARCH_BLOCK, 6))), ch, rng)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            nearest_points(r, pts, ch.h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < SEARCH_BLOCK * 4096 * 8

    @pytest.mark.parametrize("k", [-70, 70])
    def test_decisions_exact_at_extreme_scales(self, huawei, k, monkeypatch):
        # at 2^70 the screen's S = ||q||^2 + max |h p|^2 lies beyond float32's
        # range, and at 2^-70 its products underflow float32. Scaling by 2^k
        # is exact in float64, so the decisions must be the unscaled ones,
        # and an underflowing screen must not make every point a near tie
        rng = np.random.default_rng(70)
        ch = ChannelRealization(h=FADING, n0=ebn0_to_n0(8.0, 4))
        r = apply_channel(superimpose(huawei, rng.integers(0, 4, (300, 6))), ch, rng)
        want = _ml_decisions(r, huawei, ch)
        scaled = Codebook(entries=huawei.entries * 2.0**k, config=huawei.config,
                          indicator=huawei.indicator)
        rechecked = []
        exact = core.ordered_distances
        monkeypatch.setattr(core, "ordered_distances",
                            lambda a, b: rechecked.append(len(a)) or exact(a, b))
        assert np.array_equal(_ml_decisions(r * 2.0**k, scaled, ch), want)
        assert sum(rechecked) <= len(r)

    def test_permutation_equivariance(self, huawei):
        perm = [3, 1, 5, 0, 2, 4]
        permuted = Codebook(
            entries=huawei.entries[perm],
            config=huawei.config,
            indicator=IndicatorMatrix(huawei.indicator.F[:, perm]),
        )
        ch = ChannelRealization.awgn(4, 0.05)
        r = apply_channel(np.zeros(4, dtype=complex), ch, np.random.default_rng(9))
        dec = ml_detect(r, huawei, ch)
        dec_perm = ml_detect(r, permuted, ch)
        assert np.array_equal(dec_perm, dec[perm])

    def test_guard(self):
        # ten users on every pair of five resources: 4^10 = 1,048,576 tuples
        # exceed core.SEARCH_GUARD and are rejected before any is built
        F = np.zeros((5, 10), dtype=int)
        for j, pair in enumerate(itertools.combinations(range(5), 2)):
            F[list(pair), j] = 1
        cfg = SystemConfig(n_users=10, n_resources=5, n_nonzero=2, alphabet_size=4)
        cb = Codebook(entries=np.zeros((10, 5, 4), dtype=complex), config=cfg, indicator=IndicatorMatrix(F))
        with pytest.raises(SearchSpaceError, match="1048576 points"):
            ml_detect(np.zeros(5, dtype=complex), cb, ChannelRealization.awgn(5, 0.1))

    @pytest.mark.parametrize("h", [np.ones(4), FADING], ids=["awgn", "fading"])
    def test_midpoints_equal_plain_per_pair_loop(self, huawei, h):
        # queries at exact midpoints (h p_i + h p_j) / 2 of near pairs are
        # ties up to rounding: the GEMM screen cannot tell them apart, the
        # exact re-check must, as the loop below does
        faded = h * superimposed_constellation(huawei)
        dims = np.concatenate([faded.real, faded.imag], axis=1)

        def loop_distances(r):
            # per-dimension sum in index order over real-split dimensions
            q = np.concatenate([r.real, r.imag], axis=1)
            d = np.zeros((len(q), len(dims)))
            for dim in range(dims.shape[1]):
                d += (q[:, dim, None] - dims[:, dim]) ** 2
            return d

        rng = np.random.default_rng(5)
        i = rng.integers(0, 4096, 300)
        d = loop_distances(faded[i])
        d[np.arange(300), i] = np.inf
        j = np.where(np.arange(300) % 3 == 0, rng.integers(0, 4096, 300), np.argmin(d, axis=1))
        r = (faded[i] + faded[j]) / 2
        want = np.argmin(loop_distances(r), axis=1)  # first minimum
        got = _ml_decisions(r, huawei, ChannelRealization(h=h, n0=0.1))
        assert np.array_equal(got, tuple_digits(want, 4, 6))

    def test_constellation_is_c_ordered_and_unchanged(self, huawei):
        # C order lets the search view it as floats without a copy; the bytes
        # are those recorded before the constellation was built C-ordered
        pts = superimposed_constellation(huawei)
        assert pts.flags.c_contiguous
        assert sha256_of(pts) == "e483158b02e5a624a20b396eea00382a1ddb750c51d2ccdab8a8a1f3b7b7e0ec"


class TestComplexity:
    def test_paper_formula(self, huawei):
        assert mpa_complexity(MpaConfig(n_iter=10), huawei.indicator, 4) == 23040

    def test_minimal(self):
        ind = IndicatorMatrix([[1]])
        assert mpa_complexity(MpaConfig(n_iter=1), ind, 2) == 2

    def test_six_iterations(self, huawei):
        assert mpa_complexity(MpaConfig(n_iter=6), huawei.indicator, 4) == 13824

    def test_irregular_counts_the_padded_max_degree(self):
        # row degrees 3, 1, 1, 1: every resource is padded to 3 slots
        ind = IndicatorMatrix([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert mpa_complexity(MpaConfig(n_iter=2), ind, 2) == 2 * 4 * 9 * 8
