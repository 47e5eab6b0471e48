import numpy as np
import pytest

from scmalink import (
    Codebook,
    ConfigError,
    MpaConfig,
    SearchSpaceError,
    SystemConfig,
    build_indicator,
    compare_codebooks,
    compute_med,
    data_path,
    read_codebook,
    simulate_ber,
    wilson_interval,
)


def naive_med_oracle(codebook):
    """Independent oracle: explicit pair loop, per-dimension accumulation."""
    from scmalink import superimposed_constellation

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


def random_codebook(rng, n_users, n_resources, n_nonzero, alphabet):
    cfg = SystemConfig(n_users=n_users, n_resources=n_resources,
                       n_nonzero=n_nonzero, alphabet_size=alphabet)
    F = np.zeros((n_resources, n_users), dtype=int)
    for j in range(n_users):
        F[rng.permutation(n_resources)[:n_nonzero], j] = 1
    ind = build_indicator(F)
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
        ind = build_indicator([[1, 1]])
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
        rng = np.random.default_rng(3)
        cb = random_codebook(rng, 3, 3, 2, 2)
        with pytest.raises(SearchSpaceError):
            compute_med(cb, guard=4)


class TestCompareCodebooks:
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
    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi


class TestSimulateBer:
    @pytest.fixture(scope="class")
    def huawei(self):
        return read_codebook(data_path("huawei_4x6.json")).normalized()

    def test_noise_free_is_error_free(self, huawei):
        for detector in ("mpa", "ml"):
            curve = simulate_ber(
                huawei, detector, [8.0], min_errors=10, max_bits=12_000,
                seed=1, batch_size=500, noise_free=True,
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

    @pytest.mark.parametrize("budget", ["batch_size", "min_errors", "max_bits"])
    def test_budget_below_one_rejected(self, huawei, budget):
        kwargs = dict(min_errors=10, max_bits=12_000, batch_size=500)
        kwargs[budget] = 0
        with pytest.raises(ConfigError, match=budget):
            simulate_ber(huawei, "mpa", [8.0], **kwargs)
