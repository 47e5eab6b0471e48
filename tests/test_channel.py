import numpy as np
import pytest

from scmalink import (
    ChannelRealization,
    ConfigError,
    ShapeError,
    apply_channel,
    ebn0_to_n0,
    split_real,
)


class TestEbn0Conversion:
    def test_zero_db_m4(self):
        assert ebn0_to_n0(0.0, 4) == pytest.approx(0.5)

    def test_ten_db_m4(self):
        assert ebn0_to_n0(10.0, 4) == pytest.approx(0.05)

    def test_three_db_m2(self):
        # 10^(-0.30103) = 1/2
        assert ebn0_to_n0(3.0103, 2) == pytest.approx(0.5, abs=1e-5)

    def test_seven_db_m4(self):
        # unit codeword energy over log2(M) = 2 bits: N0 = 10^(-0.7) / 2
        assert ebn0_to_n0(7.0, 4) == pytest.approx(10.0**-0.7 / 2)

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ConfigError):
            ebn0_to_n0(5.0, 1)

    def test_rejects_alphabet_not_a_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two >= 2, got 3"):
            ebn0_to_n0(8.0, 3)

    @pytest.mark.parametrize("ebn0", [-4000.0, np.float64(-4000.0)], ids=["float", "float64"])
    def test_overflowing_n0_names_the_ebn0(self, ebn0):
        with pytest.raises(ConfigError, match="Eb/N0 -4000.0 dB"):
            ebn0_to_n0(ebn0, 4)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
    @pytest.mark.parametrize("ebn0", [-3.0, 0.0, 7.0, 8.0, 12.5])
    def test_bit_for_bit_with_float_log2_divisor(self, m, ebn0):
        # reference: the same quotient with a float64 np.log2(M) divisor
        assert repr(ebn0_to_n0(ebn0, m)) == repr(float(10.0 ** (-ebn0 / 10.0) / np.log2(m)))


class TestApplyChannel:
    def test_deterministic_given_seed(self):
        ch = ChannelRealization.awgn(3, 0.2)
        s = np.ones(3, dtype=complex)
        r1 = apply_channel(s, ch, np.random.default_rng(99))
        r2 = apply_channel(s, ch, np.random.default_rng(99))
        assert np.array_equal(r1, r2)

    def test_noise_statistics_one_million_samples(self):
        # per-real-dimension variance within 1% of n0/2, mean within 3 sigma
        n0 = 0.8
        ch = ChannelRealization.awgn(1, n0)
        rng = np.random.default_rng(2024)
        n_samples = 1_000_000
        r = apply_channel(np.zeros((n_samples, 1), dtype=complex), ch, rng)
        dims = np.concatenate([r.real.ravel(), r.imag.ravel()])
        assert dims.var() == pytest.approx(n0 / 2, rel=0.01)
        sigma_of_mean = np.sqrt(n0 / 2 / dims.size)
        assert abs(dims.mean()) < 3 * sigma_of_mean

    def test_linearity_with_shared_noise(self):
        ch = ChannelRealization(h=np.array([0.7 + 0.2j, 1.1]), n0=0.3)
        s = np.array([1 - 1j, 2 + 0.5j])
        a = 3.0
        noisy = apply_channel(a * s, ch, np.random.default_rng(5))
        base = apply_channel(np.zeros(2, dtype=complex), ch, np.random.default_rng(5))
        assert noisy - base == pytest.approx(a * (ch.h * s), abs=1e-12)

    def test_batch_shape(self):
        ch = ChannelRealization.awgn(4, 0.1)
        r = apply_channel(np.zeros((10, 4), dtype=complex), ch, np.random.default_rng(0))
        assert r.shape == (10, 4)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ConfigError):
            ChannelRealization.awgn(2, 0.0)

    @pytest.mark.parametrize("n0", [np.inf, np.nan])
    def test_rejects_non_finite_noise(self, n0):
        with pytest.raises(ConfigError, match="positive and finite"):
            ChannelRealization.awgn(2, n0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, -np.inf)])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(ConfigError, match="coefficients must be finite"):
            ChannelRealization(h=np.array([bad, 1, 1, 1]), n0=0.1)

    def test_rejects_coefficients_that_are_not_a_vector(self):
        with pytest.raises(ShapeError, match=r"must be a vector, got shape \(2, 2\)"):
            ChannelRealization(h=np.ones((2, 2)), n0=0.1)

    def test_rejects_signal_of_another_resource_count(self):
        ch = ChannelRealization.awgn(4, 0.1)
        with pytest.raises(ShapeError, match="signal has 3 resources, channel has 4"):
            apply_channel(np.zeros((2, 3), dtype=complex), ch, np.random.default_rng(0))


def test_split_real_layout():
    r = np.array([[1 + 2j, 3 - 4j]])
    assert split_real(r).tolist() == [[1.0, 3.0, 2.0, -4.0]]
