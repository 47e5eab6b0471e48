from dataclasses import replace

import numpy as np
import pytest

from scmalink import (
    Codebook,
    ConfigError,
    IndicatorMatrix,
    ShapeError,
    SystemConfig,
    build_bit_matrix,
    compute_med,
)
from scmalink.core import alphabet_bits
from scmalink.training import _labels_from_bits


def labels(bit_vectors):
    """Message indices of a list of +/-1 bit vectors."""
    return _labels_from_bits(np.array(bit_vectors)[None])[0]


class TestSystemConfig:
    def test_paper_dimensions(self):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        assert cfg.bits_per_symbol == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=0, n_resources=4, n_nonzero=2, alphabet_size=4),
            dict(n_users=6, n_resources=4, n_nonzero=5, alphabet_size=4),
            dict(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=3),
            dict(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=1),
            # no (J, K, M) codebook array of an M above 2^16 is allocated
            dict(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=2**17),
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("m, bits", [(2, 1), (4, 2), (8, 3), (16, 4), (64, 6)])
    def test_bits_per_symbol_is_log2_m(self, m, bits):
        assert alphabet_bits(m) == bits
        assert SystemConfig(n_users=1, n_resources=1, n_nonzero=1, alphabet_size=m).bits_per_symbol == bits


class TestBitMatrix:
    def test_m2(self):
        assert build_bit_matrix(2).tolist() == [[-1, 1]]

    def test_m4_convention(self):
        # columns count 0..3 with row 0 as MSB, -1 encoding binary 0
        assert build_bit_matrix(4).tolist() == [[-1, -1, 1, 1], [-1, 1, -1, 1]]

    def test_m8_matches_enumeration_oracle(self):
        # independent oracle: enumerate sign patterns, sort by integer value
        patterns = []
        for m in range(8):
            bits = [(m >> s) & 1 for s in (2, 1, 0)]
            patterns.append([2 * b - 1 for b in bits])
        expected = np.array(patterns).T
        assert np.array_equal(build_bit_matrix(8), expected)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_rows_orthogonal_exact(self, m):
        b = build_bit_matrix(m)
        assert np.array_equal(b @ b.T, m * np.eye(b.shape[0], dtype=np.int64))
        # each row balanced between signs
        assert np.all((b == 1).sum(axis=1) == m // 2)

    @pytest.mark.parametrize("m", [3, 6, 0, 1])
    def test_rejects_non_power_of_two(self, m):
        with pytest.raises(ConfigError):
            build_bit_matrix(m)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_bit_index_roundtrip(self, m):
        # column m of the bit matrix carries message m
        assert labels(build_bit_matrix(m).T).tolist() == list(range(m))


class TestMessageIndices:
    def test_m4_mapping(self):
        idx = labels([[-1, -1], [-1, 1], [1, -1], [1, 1]])
        assert idx.dtype.kind == "i" and idx.tolist() == [0, 1, 2, 3]

    def test_m2(self):
        assert labels([[-1], [1]]).tolist() == [0, 1]


class TestIndicator:
    def test_paper_4x6(self, huawei_codebook):
        ind = huawei_codebook.indicator
        assert np.all(ind.F.sum(axis=1) == 3)
        assert ind.n_nonzero == 2
        # column 1 (user index 0) occupies rows 2 and 4 in 1-based terms
        assert ind.supports[0].tolist() == [1, 3]

    def test_identity_indicator(self):
        ind = IndicatorMatrix(np.eye(3, dtype=int))
        assert ind.supports.tolist() == [[0], [1], [2]]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ConfigError):
            IndicatorMatrix([[1, 1], [1, 0]])

    @pytest.mark.parametrize("F, error, message", [
        ([1, 0, 1], ShapeError, "2-d"),
        (np.zeros((4, 0), dtype=int), ShapeError, "non-empty"),  # no users
        ([[0, 0], [0, 0]], ConfigError, "empty columns"),
    ], ids=["1-d", "no-columns", "zero-columns"])
    def test_malformed_f_rejected(self, F, error, message):
        with pytest.raises(error, match=message):
            IndicatorMatrix(F)


class TestCodebook:
    def test_support_violation_names_user_and_resource(self, huawei_codebook):
        cfg = SystemConfig(n_users=6, n_resources=4, n_nonzero=2, alphabet_size=4)
        ind = huawei_codebook.indicator
        entries = np.zeros((6, 4, 4), dtype=complex)
        for j in range(6):
            entries[j, list(ind.supports[j]), :] = 1.0
        entries[2, 3, 0] = 0.5  # user 2 never occupies resource 3
        with pytest.raises(ConfigError, match="user 2.*resource 3"):
            Codebook(entries=entries, config=cfg, indicator=ind)

    @pytest.mark.parametrize("F", [np.ones((4, 1), dtype=int), np.ones((4, 6), dtype=int)])
    def test_indicator_that_disagrees_with_config_rejected(self, huawei_codebook, F):
        # J = 1, then N = 4, under the J = 6, N = 2 system: neither graph leaves a
        # codeword's energy off its support, so only the dimensions catch them
        with pytest.raises(ShapeError, match="does not match"):
            Codebook(entries=huawei_codebook.entries, config=huawei_codebook.config,
                     indicator=IndicatorMatrix(F))

    def test_entries_of_another_shape_rejected(self):
        cfg = SystemConfig(n_users=2, n_resources=2, n_nonzero=1, alphabet_size=2)
        with pytest.raises(ShapeError, match=r"entries shape \(2, 2, 4\), expected \(2, 2, 2\)"):
            Codebook(entries=np.zeros((2, 2, 4), dtype=complex), config=cfg,
                     indicator=IndicatorMatrix(np.eye(2, dtype=int)))

    @pytest.mark.parametrize("value", [np.inf, np.nan, complex(0.0, -np.inf)])
    def test_non_finite_entry_rejected(self, value):
        cfg = SystemConfig(n_users=2, n_resources=2, n_nonzero=1, alphabet_size=2)
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 0, 1] = value
        with pytest.raises(ConfigError, match="finite"):
            Codebook(entries=entries, config=cfg, indicator=IndicatorMatrix(np.eye(2, dtype=int)))

    def test_normalized_unit_energy(self):
        cfg = SystemConfig(n_users=2, n_resources=2, n_nonzero=1, alphabet_size=2)
        ind = IndicatorMatrix(np.eye(2, dtype=int))
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[0, 0] = [3.0, -3.0]
        entries[1, 1] = [1j, -1j]
        cb = Codebook(entries=entries, config=cfg, indicator=ind).normalized()
        assert cb.user_energies() == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_normalized_subnormal_energy_is_exact(self, huawei_codebook):
        # user 0's energy is about 1e-320, a subnormal: squared unscaled it
        # lost its low bits, and the user normalised to energy 1.0000379
        entries = huawei_codebook.entries.copy()
        entries[0] *= 1e-160
        cb = replace(huawei_codebook, entries=entries).normalized()
        assert np.abs(cb.user_energies() - 1.0).max() <= 4 * np.finfo(float).eps
        assert compute_med(cb).med == pytest.approx(0.5534440688493857, abs=1e-12)
        # every user of normal energy keeps the bits of the plain division
        huawei = huawei_codebook.normalized()
        assert cb.entries[1:].tobytes() == huawei.entries[1:].tobytes()
        assert huawei.entries.tobytes() == (huawei_codebook.entries / np.sqrt(
            huawei_codebook.user_energies())[:, None, None]).tobytes()
