import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scmalink import (
    ChannelRealization,
    Codebook,
    ConfigError,
    MpaConfig,
    SearchSpaceError,
    SystemConfig,
    apply_channel,
    build_indicator,
    data_path,
    ebn0_to_n0,
    ml_detect,
    mpa_complexity,
    mpa_detect,
    paper_indicator_4x6,
    read_codebook,
    superimpose,
    superimposed_constellation,
    tuple_digits,
)
from scmalink import core
from scmalink.core import SEARCH_BLOCK, nearest_points
from scmalink.mpa import BLOCK, N0_FLOOR, _ml_decisions, _mpa_posteriors, _slot_maxima


# a fixed fading vector h whose gains differ by resource
FADING = np.array([1.3 + 0.4j, 0.2 - 0.9j, 0.7 + 0.1j, -0.5 + 1.6j])


@pytest.fixture(scope="module")
def huawei():
    return read_codebook(data_path("huawei_4x6.json")).normalized()


def single_user_codebook():
    cfg = SystemConfig(n_users=1, n_resources=1, n_nonzero=1, alphabet_size=4)
    ind = build_indicator([[1]])
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
    return Codebook(entries=entries, config=cfg, indicator=build_indicator(F))


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


class TestSlotMaxima:
    @pytest.mark.parametrize("M", [2, 4, 8])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_multi_axis_max(self, d, M):
        rng = np.random.default_rng(10 * d + M)
        # five distinct values, so most maxima are ties; two trailing axes
        cube = rng.integers(-2, 3, (M,) * d + (3, 5)).astype(float)
        maxima = _slot_maxima(cube, d)
        assert len(maxima) == d
        for s, got in enumerate(maxima):
            want = np.max(cube, axis=tuple(a for a in range(d) if a != s))
            assert got.shape == want.shape and np.array_equal(got, want)


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
        ind = build_indicator([[1, 1]])
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
            indicator=build_indicator(huawei.indicator.F[:, perm]),
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
        cb = Codebook(entries=np.zeros((10, 5, 4), dtype=complex), config=cfg, indicator=build_indicator(F))
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
    def test_paper_formula(self):
        assert mpa_complexity(MpaConfig(n_iter=10), paper_indicator_4x6(), 4) == 23040

    def test_minimal(self):
        ind = build_indicator([[1]])
        assert mpa_complexity(MpaConfig(n_iter=1), ind, 2) == 2

    def test_six_iterations(self):
        assert mpa_complexity(MpaConfig(n_iter=6), paper_indicator_4x6(), 4) == 13824

    def test_irregular_uses_max_degree_with_warning(self):
        ind = build_indicator([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.warns(UserWarning, match="irregular"):
            est = mpa_complexity(MpaConfig(n_iter=2), ind, 2)
        assert est == 2 * 4 * 9 * 8
