import tracemalloc

import numpy as np
import pytest

from scmalink import (
    ChannelRealization,
    Codebook,
    ConfigError,
    IndicatorMatrix,
    MpaConfig,
    MultiTaskDecoder,
    SearchSpaceError,
    SystemConfig,
    apply_channel,
    build_bit_matrix,
    compare_codebooks,
    compute_med,
    data_path,
    ebn0_to_n0,
    read_codebook,
    simulate_ber,
    superimpose,
    superimposed_constellation,
    tuple_digits,
    wilson_interval,
)
from scmalink import core, metrics
from scmalink.core import SEARCH_BLOCK, nearest_points
from scmalink.metrics import _bit_error_table
from scmalink.mpa import _ml_decisions, _mpa_posteriors


def naive_med_oracle(codebook):
    """Independent oracle: explicit pair loop, per-dimension accumulation."""
    pts = superimposed_constellation(codebook)
    r = np.concatenate([pts.real, pts.imag], axis=1)
    n, dims = r.shape
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = 0.0
            for dim in range(dims):
                d += (r[i, dim] - r[j, dim]) ** 2
            if d < best:
                best = d
    return best


def first_nearest_oracle(queries, points, after_self=False):
    """Independent oracle without a GEMM: the squared distance of each query
    to each point (with after_self, of query i to the points j > i only),
    summed one real-split dimension at a time in index order; the first
    minimum wins. Returns the nearest index and its distance per query."""
    q = np.concatenate([queries.real, queries.imag], axis=1)
    r = np.concatenate([points.real, points.imag], axis=1)
    nearest, dist = np.empty(len(q), dtype=np.int64), np.empty(len(q))
    for a in range(0, len(q), 64):
        rows = np.arange(a, min(a + 64, len(q)))
        d = np.zeros((len(rows), len(r)))
        for dim in range(r.shape[1]):
            d += (q[rows, dim, None] - r[:, dim]) ** 2
        if after_self:
            d[np.arange(len(r)) <= rows[:, None]] = np.inf
        nearest[rows] = np.argmin(d, axis=1)
        dist[rows] = d[rows - a, nearest[rows]]
    return nearest, dist


def per_row_med_oracle(codebook):
    """first_nearest_oracle of every point i against the points j > i; the
    first strictly smaller row minimum wins. Returns the MED and its (i, j)
    pair."""
    pts = superimposed_constellation(codebook)
    nearest, dist = first_nearest_oracle(pts[:-1], pts, after_self=True)
    i = int(np.argmin(dist))
    return dist[i], (i, int(nearest[i]))


def random_codebook(rng, n_users, n_resources, n_nonzero, alphabet):
    cfg = SystemConfig(n_users=n_users, n_resources=n_resources,
                       n_nonzero=n_nonzero, alphabet_size=alphabet)
    F = np.zeros((n_resources, n_users), dtype=int)
    for j in range(n_users):
        F[rng.permutation(n_resources)[:n_nonzero], j] = 1
    ind = IndicatorMatrix(F)
    entries = np.zeros((n_users, n_resources, alphabet), dtype=complex)
    for j in range(n_users):
        rows = list(ind.supports[j])
        vals = rng.normal(size=(n_nonzero, alphabet)) + 1j * rng.normal(size=(n_nonzero, alphabet))
        entries[j][rows, :] = vals
    return Codebook(entries=entries, config=cfg, indicator=ind)


class TestComputeMed:
    def test_huawei_baseline(self):
        cb = read_codebook(data_path("huawei_4x6.json")).normalized()
        rep = compute_med(cb)
        assert rep.med == pytest.approx(0.56, abs=0.02)
        assert rep.phi_size == 4096
        assert rep.arg_pair[0] != rep.arg_pair[1]

    def test_degenerate_bpsk_superposition(self):
        # two BPSK users on one resource: points {-2, 0, 0, +2}, med 0
        cfg = SystemConfig(n_users=2, n_resources=1, n_nonzero=1, alphabet_size=2)
        ind = IndicatorMatrix([[1, 1]])
        entries = np.array([[[1, -1]], [[1, -1]]], dtype=complex)
        cb = Codebook(entries=entries, config=cfg, indicator=ind)
        rep = compute_med(cb)
        assert rep.med == pytest.approx(0.0, abs=1e-15)
        assert rep.phi_size == 4
        # both zero-distance pairs tie; the lowest (row, column) pair wins
        assert rep.arg_pair == ((0, 1), (1, 0))

    def test_matches_naive_oracle_small(self):
        rng = np.random.default_rng(0)
        cb = random_codebook(rng, n_users=3, n_resources=3, n_nonzero=2, alphabet=2)
        assert compute_med(cb).med == naive_med_oracle(cb)

    @pytest.mark.parametrize("kind,seed", [("gaussian", 4), ("grid", 4), ("tied", 0), ("tied", 17)])
    def test_matches_per_row_oracle_over_many_blocks(self, kind, seed):
        # 1024 points span many SEARCH_BLOCK-row search blocks, screened in
        # float32. The grid codebook (entries in thirds) has many pairs at
        # equal distances. In the tied one, user 0's codewords 0, c, -c give
        # each point two later points at distance |c| in exact arithmetic,
        # which rounding tells apart by an ulp
        rng = np.random.default_rng(seed)
        cb = random_codebook(rng, n_users=5, n_resources=4, n_nonzero=2, alphabet=4)
        entries = cb.entries.copy()
        if kind == "grid":
            entries = np.round(3 * entries) / 3
        if kind == "tied":
            c = 0.05 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            entries[0][list(cb.indicator.supports[0]), :3] = np.stack([0 * c, c, -c], axis=1)
        cb = Codebook(entries=entries, config=cb.config, indicator=cb.indicator)
        med, pair = per_row_med_oracle(cb)
        rep = compute_med(cb)
        assert rep.phi_size == 1024
        assert rep.med == med
        assert rep.arg_pair == tuple(map(tuple, tuple_digits(np.array(pair), 4, 5).tolist()))

    def test_tie_pass_matches_first_minimum_oracle_on_every_row(self, monkeypatch):
        # 1,614 of the normalized Huawei constellation's 4,095 rows are near
        # ties in the float32 screen; midpoints of nearest pairs under fading
        # give a query several candidates at nearly equal distances
        rechecked = []
        exact = core.ordered_distances
        monkeypatch.setattr(core, "ordered_distances",
                            lambda a, b: rechecked.append(len(a)) or exact(a, b))
        cb = read_codebook(data_path("huawei_4x6.json")).normalized()
        rep = compute_med(cb)
        assert 0 < sum(rechecked) < rep.phi_size
        pts = superimposed_constellation(cb)
        want, dist = first_nearest_oracle(pts[:-1], pts, after_self=True)
        assert np.array_equal(nearest_points(pts[:-1], pts, after_self=True), want)
        assert rep.med == dist.min()

        # each query halfway between a point and its nearest later point, both faded
        h = np.array([1.3 + 0.4j, 0.2 - 0.9j, 0.7 + 0.1j, -0.5 + 1.6j])
        faded = h * pts
        a = np.random.default_rng(5).choice(len(pts) - 1, 2 * SEARCH_BLOCK + 7, replace=False)
        queries = (faded[a] + faded[want[a]]) / 2
        rechecked.clear()
        assert np.array_equal(nearest_points(queries, pts, h), first_nearest_oracle(queries, faded)[0])
        assert sum(rechecked) > len(queries)

    @pytest.mark.parametrize("k", [-70, -20, 20, 70])
    def test_power_of_two_scaling_is_exact(self, k):
        # at 2^-20 and 2^20 the pair screen runs in float32, at 2^-70 and
        # 2^70 it falls back to float64; scaling by 2^k is exact in float64,
        # so the MED scales by 4^k bit for bit and keeps its pair
        cb = read_codebook(data_path("huawei_4x6.json")).normalized()
        base = compute_med(cb)
        rep = compute_med(Codebook(entries=cb.entries * 2.0**k, config=cb.config,
                                   indicator=cb.indicator))
        assert rep.med == 4.0**k * base.med
        assert rep.arg_pair == base.arg_pair

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(1)
        cb = random_codebook(rng, 3, 3, 2, 2)
        base = compute_med(cb).med
        scaled = Codebook(entries=2.5 * cb.entries, config=cb.config, indicator=cb.indicator)
        assert compute_med(scaled).med == pytest.approx(2.5**2 * base, rel=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        cb = random_codebook(rng, 3, 3, 2, 2)
        base = compute_med(cb).med
        rotated = Codebook(
            entries=np.exp(1j * 0.7) * cb.entries, config=cb.config, indicator=cb.indicator
        )
        assert compute_med(rotated).med == pytest.approx(base, abs=1e-9)

    def test_guard(self):
        # 4^10 = 1,048,576 points exceed core.SEARCH_GUARD: rejected before any is built
        cb = random_codebook(np.random.default_rng(3), 10, 5, 2, 4)
        with pytest.raises(SearchSpaceError, match="1048576 points"):
            compute_med(cb)


def count_rechecks(monkeypatch):
    """The row count of every core.ordered_distances call nearest_points makes."""
    rows, exact = [], core.ordered_distances
    monkeypatch.setattr(core, "ordered_distances", lambda a, b: rows.append(len(a)) or exact(a, b))
    return rows


class TestNearestPoints:
    def test_huawei_med_rechecks_its_near_ties_in_one_call(self, monkeypatch):
        rows = count_rechecks(monkeypatch)
        rep = compute_med(read_codebook(data_path("huawei_4x6.json")).normalized())
        assert rows == [3564]
        assert rep.med == 0.5534440688493857
        assert rep.arg_pair == ((0, 0, 0, 0, 0, 0), (3, 3, 2, 1, 2, 2))

    # each of m distinct points appears 96 / m times, so every query's
    # nearest distance is shared exactly by several points. Queries are
    # points or midpoints of two: a midpoint's two ends differ only by
    # rounding, which the float32 screen (over 3 blocks) cannot tell apart.
    # With m = 2 a block brings up to SEARCH_BLOCK * n candidates, so pending
    # candidates are re-checked before the next block's
    @pytest.mark.parametrize("m", [2, 16])
    def test_exact_ties_over_blocks_match_first_minimum_oracle(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        base = (rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))) * (0.3 + 0.7j)
        points = base[rng.permutation(np.arange(96) % m)]
        a, b = rng.integers(0, m, (2, 3 * SEARCH_BLOCK + 5))
        queries = (base[a] + base[b]) / 2
        rows = count_rechecks(monkeypatch)
        got = nearest_points(queries, points)
        assert np.array_equal(got, first_nearest_oracle(queries, points)[0])
        assert max(rows) <= SEARCH_BLOCK * len(points)
        assert sum(rows) >= 2 * len(queries)  # every row is a near tie
        if m == 2:
            assert len(rows) > 1

    def test_single_vector_search_copies_no_constellation(self):
        # the float64 screen reads views of the points; an augmented float64
        # copy would take n (2K + 1) 8 bytes beside |h p|^2 (n 8 bytes),
        # whose own float64 squares take n 2K 8 bytes
        pts = superimposed_constellation(read_codebook(data_path("huawei_4x6.json")).normalized())
        h = np.array([1.3 + 0.4j, 0.2 - 0.9j, 0.7 + 0.1j, -0.5 + 1.6j])
        query = h * pts[[77]] + 0.01
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            nearest_points(query, pts, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < len(pts) * (2 * 4 + 2) * 8


class TestCompareCodebooks:
    def test_no_codebooks_no_rows(self):
        assert compare_codebooks({}) == []

    def test_identical_entries_identical_med(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        rows = dict(compare_codebooks({"a": cb, "b": cb}))
        assert rows["a"] == rows["b"]

    def test_sorted_descending(self):
        rng = np.random.default_rng(4)
        cb = read_codebook(data_path("huawei_4x6.json"))
        jitter = cb.entries * (1 + 0.05 * rng.normal(size=cb.entries.shape))
        jitter[np.abs(cb.entries) == 0] = 0
        other = Codebook(entries=jitter, config=cb.config, indicator=cb.indicator)
        rows = compare_codebooks({"base": cb, "jitter": other})
        meds = [m for _, m in rows]
        assert meds == sorted(meds, reverse=True)

    def test_mixed_configs_rejected(self):
        cb = read_codebook(data_path("huawei_4x6.json"))
        rng = np.random.default_rng(5)
        other = random_codebook(rng, 3, 3, 2, 2)
        with pytest.raises(ConfigError, match="not comparable"):
            compare_codebooks({"a": cb, "b": other})


class TestWilson:
    def test_no_bits_is_the_whole_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi


@pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
def test_bit_error_table_is_popcount_of_xor(m):
    reference = [[bin(a ^ b).count("1") for b in range(m)] for a in range(m)]
    table = _bit_error_table(m)
    assert table.dtype == np.int64
    assert table.tolist() == reference


class TestSimulateBer:
    @pytest.fixture(scope="class")
    def huawei(self):
        return read_codebook(data_path("huawei_4x6.json")).normalized()

    def test_noise_free_is_error_free(self, huawei):
        # practically noise-free: at 60 dB the noise sigma is about 5e-4 per
        # real dimension, against a half-minimum distance of about 0.37
        for detector in ("mpa", "ml"):
            curve = simulate_ber(
                huawei, detector, [60.0], min_errors=10, max_bits=12_000,
                seed=1, batch_size=500,
            )
            assert curve.points[0].bit_errors == 0
            assert curve.points[0].ber == 0.0

    def test_high_vs_low_snr_ordering(self, huawei):
        curve = simulate_ber(
            huawei, "mpa", [4.0, 12.0], min_errors=150, max_bits=400_000,
            seed=2, batch_size=2000,
        )
        low, high = curve.points
        assert high.ber < low.ber
        assert high.ci_high < low.ci_low  # non-overlapping intervals

    def test_reproducible_for_fixed_seed_and_workers(self, huawei):
        kwargs = dict(min_errors=50, max_bits=60_000, seed=3, batch_size=1000)
        a = simulate_ber(huawei, "mpa", [6.0], **kwargs)
        b = simulate_ber(huawei, "mpa", [6.0], **kwargs)
        assert a == b
        c = simulate_ber(huawei, "mpa", [6.0], workers=2, **kwargs)
        d = simulate_ber(huawei, "mpa", [6.0], workers=2, **kwargs)
        assert c == d  # bit-exact for a fixed (seed, worker count)
        assert a == c  # and the same point whatever the worker count

    # the point stops inside a wave of two or three chunks; the chunks after
    # the stopping one are dropped, so the totals do not depend on the workers
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_point_independent_of_workers(self, huawei, workers):
        kwargs = dict(min_errors=150, seed=0, batch_size=500)
        one = simulate_ber(huawei, "mpa", [8.0], **kwargs)
        assert (one.points[0].bit_errors, one.points[0].bits) == (210, 18_000)
        assert simulate_ber(huawei, "mpa", [8.0], workers=workers, **kwargs) == one

    def test_neural_shared_decoder_matches_one_worker(self, huawei):
        # two threads run one decoder's inference forward at once; it must
        # write no layer state, so the curve equals the one-worker curve
        dec = MultiTaskDecoder.build(np.random.default_rng(5), 8, 6, 4)
        kwargs = dict(min_errors=10**9, max_bits=8 * 2000 * 12, seed=6, batch_size=2000,
                      decoder=dec)
        one = simulate_ber(huawei, "neural", [4.0, 10.0], **kwargs)
        two = simulate_ber(huawei, "neural", [4.0, 10.0], workers=2, **kwargs)
        assert one.points[0].bits == 8 * 2000 * 12
        assert two == one

    @pytest.mark.parametrize("detector", ["mpa", "ml"])
    def test_user_errors_sum_to_total_and_equal_per_user_loop(self, huawei, detector):
        # three chunks of 500 at 6 dB, redrawn here from their seeds (3, 0, c)
        cfg, batch, chunks = huawei.config, 500, 3
        pt = simulate_ber(huawei, detector, [6.0], min_errors=10**9, seed=3, batch_size=batch,
                          max_bits=chunks * batch * cfg.J * cfg.bits_per_symbol).points[0]
        assert len(pt.user_errors) == cfg.J and sum(pt.user_errors) == pt.bit_errors > 0
        labels = build_bit_matrix(cfg.M)  # (bits, M)
        ch = ChannelRealization.awgn(cfg.K, ebn0_to_n0(6.0, cfg.M))
        want = [0] * cfg.J
        for c in range(chunks):
            rng = np.random.default_rng([3, 0, c])
            msgs = rng.integers(0, cfg.M, size=(batch, cfg.J))
            r = apply_channel(superimpose(huawei, msgs), ch, rng)
            if detector == "ml":
                dec = _ml_decisions(r, huawei, ch)
            else:
                dec = np.argmax(_mpa_posteriors(r, huawei, ch, MpaConfig()), axis=2)
            for j in range(cfg.J):
                want[j] += int((labels[:, msgs[:, j]] != labels[:, dec[:, j]]).sum())
        assert list(pt.user_errors) == want

    # at 130 dB, N0 is below mpa.N0_FLOOR, which floors the MPA metric only
    @pytest.mark.parametrize("ebn0", [8.0, 130.0])
    def test_every_chunk_draws_at_the_exact_n0(self, huawei, monkeypatch, ebn0):
        seen = []
        def spy(signal, ch, rng):
            seen.append(ch.n0)
            return apply_channel(signal, ch, rng)
        monkeypatch.setattr(metrics, "apply_channel", spy)
        simulate_ber(huawei, "ml", [ebn0], min_errors=10**9, max_bits=2 * 500 * 12, batch_size=500)
        assert seen == [ebn0_to_n0(ebn0, huawei.config.M)] * 2

    @pytest.mark.parametrize("ebn0s", [[3300.0], [8.0, np.inf]])
    def test_n0_that_underflows_raises_before_any_chunk(self, huawei, monkeypatch, ebn0s):
        monkeypatch.setattr(metrics, "apply_channel", lambda *args: pytest.fail("a chunk ran"))
        with pytest.raises(ConfigError, match="noise power must be positive and finite, got 0.0"):
            simulate_ber(huawei, "mpa", ebn0s)

    def test_neural_requires_decoder(self, huawei):
        with pytest.raises(ConfigError, match="decoder"):
            simulate_ber(huawei, "neural", [8.0])

    def test_unknown_detector(self, huawei):
        with pytest.raises(ConfigError):
            simulate_ber(huawei, "genie", [8.0])

    def test_censored_point_stops_at_max_bits(self, huawei):
        curve = simulate_ber(
            huawei, "mpa", [30.0], min_errors=100, max_bits=24_000,
            seed=4, batch_size=1000,
        )
        pt = curve.points[0]
        assert pt.bits >= 24_000
        assert pt.bit_errors < 100

    @pytest.mark.parametrize("budget", ["batch_size", "min_errors", "max_bits", "workers"])
    def test_budget_below_one_rejected(self, huawei, budget):
        kwargs = dict(min_errors=10, max_bits=12_000, batch_size=500)
        kwargs[budget] = 0
        with pytest.raises(ConfigError, match=budget):
            simulate_ber(huawei, "mpa", [8.0], **kwargs)
