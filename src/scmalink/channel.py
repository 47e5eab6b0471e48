"""Downlink channel: per-resource coefficients plus complex Gaussian noise.

Only the Gaussian case (h = all-ones) is exercised; the coefficient vector is
kept so that fading support is a data change. Noise is always generated in
the real-split domain: one draw of 2K independent real Gaussians of variance
N0/2 per received vector, the first K being the real parts. The neural
decoder and the MPA therefore consume identical noise statistics.

ebn0_to_n0 is the one Eb/N0 -> N0 conversion and sample_noise_split the one
noise draw; the BER simulation (through apply_channel) and the training loop
both use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ShapeError, alphabet_bits


@dataclass(frozen=True)
class ChannelRealization:
    """Channel coefficients for one receiver plus the noise level."""

    h: np.ndarray  # (K,) complex
    n0: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 1:
            raise ShapeError(f"channel coefficients must be a vector, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ConfigError(f"channel coefficients must be finite, got {h.tolist()}")
        if not 0 < self.n0 < np.inf:
            raise ConfigError(f"noise power must be positive and finite, got {self.n0}")
        object.__setattr__(self, "h", h)

    @classmethod
    def awgn(cls, n_resources: int, n0: float) -> "ChannelRealization":
        return cls(h=np.ones(n_resources, dtype=complex), n0=n0)


def ebn0_to_n0(ebn0_db: float, alphabet_size: int) -> float:
    """Noise spectral density for a given Eb/N0 under unit codeword energy.

    Each codeword carries log2(M) information bits and unit energy, so
    Eb = 1/log2(M) and N0 = 10^(-ebn0_db/10) / log2(M). Complex noise of
    total variance N0 has variance N0/2 per real dimension. An Eb/N0 whose
    N0 overflows a float raises ConfigError.
    """
    try:  # a Python float raises on overflow where a numpy one warns
        return 10.0 ** (-float(ebn0_db) / 10.0) / alphabet_bits(alphabet_size)
    except OverflowError:
        raise ConfigError(f"Eb/N0 {ebn0_db} dB gives an N0 that overflows a float") from None


def sample_noise_split(rng: np.random.Generator, n0: float, shape) -> np.ndarray:
    """Real-split noise draw: shape (..., 2K) with variance n0/2 per entry."""
    return rng.normal(0.0, np.sqrt(n0 / 2.0), size=shape)


def apply_channel(signal, ch: ChannelRealization, rng: np.random.Generator) -> np.ndarray:
    """diag(h) @ s plus complex Gaussian noise of total variance n0 per entry.

    Accepts a (K,) vector or a (batch, K) array and returns the received
    vector(s) with matching leading shape. Deterministic for a given
    generator state.
    """
    s = np.asarray(signal, dtype=complex)
    k = ch.h.size
    if s.shape[-1] != k:
        raise ShapeError(f"signal has {s.shape[-1]} resources, channel has {k}")
    faded = ch.h * s
    e = sample_noise_split(rng, ch.n0, s.shape[:-1] + (2 * k,))
    return faded + e[..., :k] + 1j * e[..., k:]


def split_real(r: np.ndarray) -> np.ndarray:
    """Complex (..., K) -> real (..., 2K): real parts first, then imaginary."""
    return np.concatenate([np.real(r), np.imag(r)], axis=-1)
